package protocol

// Indexer maps between State valuations and dense uint64 indices using a
// mixed-radix encoding (variable 0 is the most significant digit). It is the
// bridge between the specification-level model and the explicit-state
// engine's bitset representation.
type Indexer struct {
	doms   []int
	weight []uint64 // weight[i] = ∏_{j>i} doms[j]
	n      uint64
}

// NewIndexer builds an indexer for the variables of sp. It panics if the
// state space does not fit in a uint64; callers should check
// Spec.NumStates first.
func NewIndexer(sp *Spec) *Indexer {
	n, ok := sp.NumStates()
	if !ok {
		panic("protocol: state space exceeds uint64")
	}
	ix := &Indexer{
		doms:   make([]int, len(sp.Vars)),
		weight: make([]uint64, len(sp.Vars)),
		n:      n,
	}
	for i, v := range sp.Vars {
		ix.doms[i] = v.Dom
	}
	w := uint64(1)
	for i := len(ix.doms) - 1; i >= 0; i-- {
		ix.weight[i] = w
		w *= uint64(ix.doms[i])
	}
	return ix
}

// Len returns the number of states.
func (ix *Indexer) Len() uint64 { return ix.n }

// NumVars returns the number of variables.
func (ix *Indexer) NumVars() int { return len(ix.doms) }

// Dom returns the domain size of variable id.
func (ix *Indexer) Dom(id int) int { return ix.doms[id] }

// Weight returns the index weight of variable id: the product of the
// domains of the variables after it.
func (ix *Indexer) Weight(id int) uint64 { return ix.weight[id] }

// Index returns the dense index of state s.
func (ix *Indexer) Index(s State) uint64 {
	var idx uint64
	for i, v := range s {
		idx += uint64(v) * ix.weight[i]
	}
	return idx
}

// Decode fills s with the valuation of index idx and returns s.
func (ix *Indexer) Decode(idx uint64, s State) State {
	for i := range ix.doms {
		s[i] = int(idx / ix.weight[i] % uint64(ix.doms[i]))
	}
	return s
}

// Value extracts the value of variable id from index idx without decoding
// the whole state.
func (ix *Indexer) Value(idx uint64, id int) int {
	return int(idx / ix.weight[id] % uint64(ix.doms[id]))
}

// WithValue returns idx with variable id set to v.
func (ix *Indexer) WithValue(idx uint64, id, v int) uint64 {
	old := ix.Value(idx, id)
	// Wrapping uint64 arithmetic makes the signed delta exact.
	return idx + uint64(int64(v-old))*ix.weight[id]
}
