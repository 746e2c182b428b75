package symbolic

import (
	"stsyn/internal/bdd"
	"stsyn/internal/core"
)

// DefaultCompactionThreshold is the live-node count above which the
// engine's safe points (Compact calls and the MaybeGC check at CyclicSCCs
// entry) trigger a garbage collection.
const DefaultCompactionThreshold = 1 << 20

// SetCompactionThreshold overrides the live-node watermark that triggers
// collection (0 restores the default; a tiny value forces a collection at
// every safe point, which the GC-stress tests use).
func (e *Engine) SetCompactionThreshold(n int) {
	e.compactAt = n
	if n == 0 {
		n = DefaultCompactionThreshold
	}
	e.m.SetGCWatermark(n)
}

// Compact implements core.Compactor: when the live-node count has grown
// past the watermark, run a mark-and-sweep collection. The engine's own
// structures are permanent collection roots, and the caller's live sets
// are protected for the duration of the sweep, so every returned Set is
// the identical Ref that went in — node identities are stable across
// collections. Any Set that is neither listed in live nor retained via
// core.RefRegistry is invalidated.
func (e *Engine) Compact(live []core.Set) []core.Set {
	threshold := e.compactAt
	if threshold == 0 {
		threshold = DefaultCompactionThreshold
	}
	if e.m.Live() <= threshold {
		return live
	}
	for _, s := range live {
		e.m.Keep(s.(bdd.Ref))
	}
	e.m.GC()
	for _, s := range live {
		e.m.Release(s.(bdd.Ref))
	}
	return live
}
