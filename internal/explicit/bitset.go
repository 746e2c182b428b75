// Package explicit is the explicit-state engine: state predicates are
// bitsets over dense mixed-radix state indices, transition-group images are
// word-level shift kernels (every group is a uniform index translation
// dst = src + Δ), and cycles are found by trimming to the cycle core and
// running an iterative Tarjan SCC search on what remains. It implements core.Engine for state spaces that fit in memory and serves as
// the differential-testing oracle for the symbolic engine.
package explicit

import "math/bits"

// Bitset is a fixed-size set of state indices. Sets handed across the
// core.Engine boundary behave as immutable values: operations allocate a
// fresh result. The in-place primitives further down exist for the
// engine's internal kernels and for callers that own their sets (the
// core.MutableSets capability).
type Bitset struct {
	words []uint64
	n     uint64 // number of valid bits
}

// NewBitset returns an empty bitset over n states.
func NewBitset(n uint64) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the universe size.
func (b *Bitset) Len() uint64 { return b.n }

// Get reports whether index i is in the set.
func (b *Bitset) Get(i uint64) bool { return b.words[i/64]>>(i%64)&1 == 1 }

// Set adds index i (in-place; used only while constructing a fresh set).
func (b *Bitset) Set(i uint64) { b.words[i/64] |= 1 << (i % 64) }

// Clear removes index i (in-place; used only while constructing).
func (b *Bitset) Clear(i uint64) { b.words[i/64] &^= 1 << (i % 64) }

// Clone returns a copy of b.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Count returns the number of elements.
func (b *Bitset) Count() uint64 {
	var c uint64
	for _, w := range b.words {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (b *Bitset) IsEmpty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Or returns b ∪ o.
func (b *Bitset) Or(o *Bitset) *Bitset {
	c := NewBitset(b.n)
	for i := range b.words {
		c.words[i] = b.words[i] | o.words[i]
	}
	return c
}

// And returns b ∩ o.
func (b *Bitset) And(o *Bitset) *Bitset {
	c := NewBitset(b.n)
	for i := range b.words {
		c.words[i] = b.words[i] & o.words[i]
	}
	return c
}

// Diff returns b \ o.
func (b *Bitset) Diff(o *Bitset) *Bitset {
	c := NewBitset(b.n)
	for i := range b.words {
		c.words[i] = b.words[i] &^ o.words[i]
	}
	return c
}

// Not returns the complement of b within the universe.
func (b *Bitset) Not() *Bitset {
	c := NewBitset(b.n)
	for i := range b.words {
		c.words[i] = ^b.words[i]
	}
	c.trim()
	return c
}

// trim zeroes the bits above n in the last word.
func (b *Bitset) trim() {
	if rem := b.n % 64; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// ForEach calls f for every element in ascending order; f returning false
// stops the iteration early.
func (b *Bitset) ForEach(f func(i uint64) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := uint64(bits.TrailingZeros64(w))
			if !f(uint64(wi)*64 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// First returns the smallest element, or ok=false if empty.
func (b *Bitset) First() (uint64, bool) {
	for wi, w := range b.words {
		if w != 0 {
			return uint64(wi)*64 + uint64(bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}

// --- In-place word-level primitives --------------------------------------
//
// The methods below mutate their receiver. They exist for the hot paths of
// the engine (image kernels, rank fixpoints, SCC trims), where allocating a
// fresh bitset per set operation dominates the profile. Callers must own
// the receiver: sets handed out by the engine (Universe, Invariant, cached
// group sources) are shared and must never be mutated.

// ClearAll removes every element (in place).
func (b *Bitset) ClearAll() *Bitset {
	for i := range b.words {
		b.words[i] = 0
	}
	return b
}

// OrInPlace sets b = b ∪ o.
func (b *Bitset) OrInPlace(o *Bitset) *Bitset {
	for i, w := range o.words {
		b.words[i] |= w
	}
	return b
}

// AndNotInto sets b = a \ o. b may alias a or o.
func (b *Bitset) AndNotInto(a, o *Bitset) *Bitset {
	for i := range b.words {
		b.words[i] = a.words[i] &^ o.words[i]
	}
	return b
}

// Intersects reports whether b ∩ o is non-empty, without materializing the
// intersection.
func (b *Bitset) Intersects(o *Bitset) bool {
	for i, w := range b.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// OrShiftMasked sets b |= { i+delta : i ∈ x } ∩ mask in a single word pass,
// with no intermediate set. b must not alias x or mask. The mask must be
// trimmed (no bits ≥ n), which holds for every engine-owned set, so the
// result needs no trim pass of its own.
func (b *Bitset) OrShiftMasked(x *Bitset, delta int64, mask *Bitset) *Bitset {
	w, s, m := b.words, x.words, mask.words
	if delta >= 0 {
		q := int(delta / 64)
		r := uint(delta % 64)
		// Output word i reads s[i-q] (and s[i-q-1] when r≠0), so only
		// i ≥ q can change.
		if r == 0 {
			for i := len(w) - 1; i >= q; i-- {
				w[i] |= s[i-q] & m[i]
			}
		} else {
			for i := len(w) - 1; i >= q; i-- {
				v := s[i-q] << r
				if i-q-1 >= 0 {
					v |= s[i-q-1] >> (64 - r)
				}
				w[i] |= v & m[i]
			}
		}
		return b
	}
	d := uint64(-delta)
	q := int(d / 64)
	r := uint(d % 64)
	// Output word i reads s[i+q] (and s[i+q+1] when r≠0), so only
	// i < len(s)-q can change.
	if r == 0 {
		for i := 0; i < len(s)-q; i++ {
			w[i] |= s[i+q] & m[i]
		}
	} else {
		for i := 0; i < len(s)-q; i++ {
			v := s[i+q] >> r
			if i+q+1 < len(s) {
				v |= s[i+q+1] << (64 - r)
			}
			w[i] |= v & m[i]
		}
	}
	return b
}

// orShiftSpan sets b |= { i+delta : i ∈ b } for delta > 0, where every
// element of b lies in [lo, hi] and hi+delta < n. It visits only the words
// of [lo+delta, hi+delta], high to low, so each reads the words below it
// before they change and b may shift into itself.
func (b *Bitset) orShiftSpan(lo, hi, delta uint64) {
	w := b.words
	q, r := int(delta/64), uint(delta%64)
	for i := int((hi + delta) / 64); i >= int((lo+delta)/64); i-- {
		v := w[i-q] << r
		if k := i - q - 1; k >= 0 {
			// A Go shift by 64 yields zero, so r = 0 needs no case of its own.
			v |= w[k] >> (64 - r)
		}
		w[i] |= v
	}
}

// ShiftIntersects reports whether shift(b, delta) ∩ m1 (∩ m2 when m2 is
// non-nil) is non-empty, without materializing the shifted set. The scan
// exits on the first intersecting word, so on dense inputs it is O(1) like
// the early-exiting per-state scan it replaces. Masks must be trimmed.
func (b *Bitset) ShiftIntersects(delta int64, m1, m2 *Bitset) bool {
	s := b.words
	if delta >= 0 {
		q := int(delta / 64)
		r := uint(delta % 64)
		for i := len(s) - 1; i >= q; i-- {
			v := s[i-q] << r
			if r != 0 && i-q-1 >= 0 {
				v |= s[i-q-1] >> (64 - r)
			}
			v &= m1.words[i]
			if m2 != nil {
				v &= m2.words[i]
			}
			if v != 0 {
				return true
			}
		}
		return false
	}
	d := uint64(-delta)
	q := int(d / 64)
	r := uint(d % 64)
	for i := 0; i < len(s)-q; i++ {
		v := s[i+q] >> r
		if r != 0 && i+q+1 < len(s) {
			v |= s[i+q+1] << (64 - r)
		}
		v &= m1.words[i]
		if m2 != nil {
			v &= m2.words[i]
		}
		if v != 0 {
			return true
		}
	}
	return false
}

// ShiftInto sets b = { i+delta : i ∈ src } ∩ [0, n): every element of src
// translated by the signed offset delta, with out-of-range results dropped.
// b may alias src (the word traversal order makes the in-place shift safe
// in both directions). This is the engine's image kernel: because every
// transition group is a uniform index translation dst = src + Δ, a whole
// group image is one word-level shift.
func (b *Bitset) ShiftInto(src *Bitset, delta int64) *Bitset {
	w, s := b.words, src.words
	if delta >= 0 {
		q := int(delta / 64)
		r := uint(delta % 64)
		// High-to-low: reads are at indices ≤ the write index, so aliasing
		// src is safe.
		if r == 0 {
			for i := len(w) - 1; i >= 0; i-- {
				if i-q >= 0 {
					w[i] = s[i-q]
				} else {
					w[i] = 0
				}
			}
		} else {
			for i := len(w) - 1; i >= 0; i-- {
				var v uint64
				if i-q >= 0 {
					v = s[i-q] << r
				}
				if i-q-1 >= 0 {
					v |= s[i-q-1] >> (64 - r)
				}
				w[i] = v
			}
		}
		b.trim()
		return b
	}
	d := uint64(-delta)
	q := int(d / 64)
	r := uint(d % 64)
	// Low-to-high: reads are at indices ≥ the write index.
	if r == 0 {
		for i := 0; i < len(w); i++ {
			if i+q < len(s) {
				w[i] = s[i+q]
			} else {
				w[i] = 0
			}
		}
	} else {
		for i := 0; i < len(w); i++ {
			var v uint64
			if i+q < len(s) {
				v = s[i+q] >> r
			}
			if i+q+1 < len(s) {
				v |= s[i+q+1] << (64 - r)
			}
			w[i] = v
		}
	}
	return b
}

// --- Word-list trim kernels ----------------------------------------------
//
// The cycle-core trim (trimCore) shrinks one set, the core x, round by
// round. A delta cluster's contribution to a round, shift(x, delta) ∩
// mask ∩ x, then shrinks too, word by word: a word it leaves empty stays
// empty in every later round. The two kernels below exploit that. The
// first pass visits every word and lists the non-empty ones; later passes
// visit only the listed words and drop those that went empty.

// wordShift splits the signed bit offset delta into word arithmetic: word
// i of shift(x, delta) is x[i+q]>>r | x[i+q+1]<<(64-r), with words outside
// x reading as zero. A Go shift by 64 yields zero, so r = 0 needs no case
// of its own.
func wordShift(delta int64) (q int, r uint) {
	off := -delta
	return int(off >> 6), uint(off & 63)
}

// shiftedWord returns word i of shift(x, delta), for (q, r) = wordShift(delta).
func shiftedWord(s []uint64, i, q int, r uint) uint64 {
	var v uint64
	if k := i + q; uint(k) < uint(len(s)) {
		v = s[k] >> r
	}
	if k := i + q + 1; uint(k) < uint(len(s)) {
		v |= s[k] << (64 - r)
	}
	return v
}

// orShiftCore sets b |= shift(x, delta) ∩ mask ∩ x and appends to words,
// in ascending order, the index of every word where that set is
// non-empty. Words where mask misses x cost two loads. b must not alias x
// or mask.
func (b *Bitset) orShiftCore(x *Bitset, delta int64, mask *Bitset, words []uint32) []uint32 {
	q, r := wordShift(delta)
	w, s, m := b.words, x.words, mask.words[:len(x.words)]
	for i, mw := range m {
		mc := mw & s[i]
		if mc == 0 {
			continue
		}
		if v := shiftedWord(s, i, q, r) & mc; v != 0 {
			w[i] |= v
			words = append(words, uint32(i))
		}
	}
	return words
}

// orShiftCoreListed is orShiftCore over the listed words only. It keeps in
// place, in order, the words whose part of the set is still non-empty and
// returns them. As long as x only shrinks between calls, a dropped word
// would contribute nothing again.
func (b *Bitset) orShiftCoreListed(x *Bitset, delta int64, mask *Bitset, words []uint32) []uint32 {
	q, r := wordShift(delta)
	w, s, m := b.words, x.words, mask.words
	kept := words[:0]
	for _, i := range words {
		if v := shiftedWord(s, int(i), q, r) & m[i] & s[i]; v != 0 {
			w[i] |= v
			kept = append(kept, i)
		}
	}
	return kept
}

// meetInto sets b = s ∩ p, clears s and p, and reports whether b changed.
func (b *Bitset) meetInto(s, p *Bitset) bool {
	changed := false
	w, sw, pw := b.words, s.words[:len(b.words)], p.words[:len(b.words)]
	for i, old := range w {
		if v := sw[i] & pw[i]; v != old {
			w[i] = v
			changed = true
		}
		sw[i], pw[i] = 0, 0
	}
	return changed
}
