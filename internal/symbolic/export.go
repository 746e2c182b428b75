package symbolic

import (
	"stsyn/internal/bdd"
	"stsyn/internal/core"
)

// ExportSet returns a manager-independent snapshot of the set — the
// serialized node list prefixed with the layout fingerprint. The
// fingerprint makes snapshots self-describing across engines for the same
// spec: a memo entry taken under one variable order is rejected by
// ImportSet under any other (node indices would decode into a different
// function), so cross-schedule memos compose safely with NewWithOrder.
func (e *Engine) ExportSet(a core.Set) []uint64 {
	return append([]uint64{e.l.fingerprint()}, e.m.Serialize(a.(bdd.Ref))...)
}

// ImportSet rebuilds a snapshot into this engine's manager. ok=false when
// the fingerprint names a different layout or the node list is malformed —
// the memo then falls back to recomputation. The returned set is not yet a
// collection root; callers retain it before the next safe point, exactly
// as with any freshly computed set.
func (e *Engine) ImportSet(words []uint64) (core.Set, bool) {
	if len(words) == 0 || words[0] != e.l.fingerprint() {
		return nil, false
	}
	r, ok := e.m.Deserialize(words[1:])
	if !ok {
		return nil, false
	}
	return r, true
}
