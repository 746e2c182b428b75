package explicit

import "stsyn/internal/core"

// ExportSet returns a caller-owned copy of the set's backing words,
// suitable for storing in a cross-engine memo.
func (e *Engine) ExportSet(a core.Set) []uint64 {
	b := a.(*Bitset)
	return append([]uint64(nil), b.words...)
}

// ImportSet rebuilds a Set of this engine from exported words. ok=false
// when the word count does not match this engine's universe — an imported
// snapshot from a differently-sized state space must never alias into a
// set here.
func (e *Engine) ImportSet(words []uint64) (core.Set, bool) {
	b := NewBitset(e.n)
	if len(words) != len(b.words) {
		return nil, false
	}
	copy(b.words, words)
	return b, true
}
