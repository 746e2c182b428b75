package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"stsyn/internal/protocol"
)

// CanonicalKey returns the content address of a normalized job: a SHA-256
// over a canonical rendering of the specification
// (protocol.WriteCanonicalSpec) plus every result-affecting option. Two
// requests that denote the same synthesis problem — whether a built-in was
// named or the equivalent spec inlined, whether defaults were spelled out
// or omitted — map to the same key.
//
// Prune participates in the key even though a pruned run returns a
// byte-identical protocol: the response's prune stats block differs, and a
// cached unpruned response must not masquerade as a pruned one (or vice
// versa).
func CanonicalKey(j *Job) string {
	h := sha256.New()
	protocol.WriteCanonicalSpec(h, j.Spec)
	fmt.Fprintf(h, "engine=%s\nconvergence=%s\nresolution=%d\nfanout=%v\nprune=%v\n",
		j.Engine, j.Convergence, j.Resolution, j.Fanout, j.Prune)
	if !j.Fanout {
		fmt.Fprintf(h, "schedule=%v\n", j.Schedule)
	}
	return hex.EncodeToString(h.Sum(nil))
}
