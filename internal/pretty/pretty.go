// Package pretty renders synthesized protocols (sets of transition groups)
// back into readable guarded commands, the form the paper uses to present
// its results. Groups of one process with the same effect are merged and
// their guards minimized: value cubes are widened by merging, and common
// relational patterns (xj == xi, xj != xi, xj == xi ⊕ c, xj := xi, xj :=
// xi ⊕ c) are recognized so that, e.g., the synthesized token ring prints
// exactly like Dijkstra's protocol.
//
// Rendering costs in proportion to the groups rendered: a relation is
// decided by counting the distinct packed read valuations against the
// relation's size over the read-domain product, never by enumerating that
// product, and the effect candidates are built once per process.
package pretty

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"stsyn/internal/protocol"
)

// Command is one rendered guarded command.
type Command struct {
	Proc   int
	Guard  string
	Effect string
	Groups int // number of transition groups the command covers
}

// Protocol renders all processes' groups as guarded commands, grouped and
// ordered by process.
func Protocol(sp *protocol.Spec, groups []protocol.Group) string {
	var b strings.Builder
	byProc := make([][]protocol.Group, len(sp.Procs))
	for _, g := range groups {
		if g.Proc >= 0 && g.Proc < len(byProc) {
			byProc[g.Proc] = append(byProc[g.Proc], g)
		}
	}
	for pi := range sp.Procs {
		cmds := Process(sp, pi, byProc[pi])
		WriteProcess(&b, sp.Procs[pi].Name, len(cmds), func(i int) (string, string) {
			return cmds[i].Guard, cmds[i].Effect
		})
	}
	return b.String()
}

// WriteProcess writes one process's block of the text layout: a "name:"
// line, then one "  guard -> effect" line for each of its n commands, or
// "  (no actions)" when it has none. command returns the i-th command's
// guard and effect.
func WriteProcess(b *strings.Builder, name string, n int, command func(i int) (guard, effect string)) {
	b.WriteString(name)
	b.WriteString(":\n")
	if n == 0 {
		b.WriteString("  (no actions)\n")
		return
	}
	for i := 0; i < n; i++ {
		guard, effect := command(i)
		b.WriteString("  ")
		b.WriteString(guard)
		b.WriteString(" -> ")
		b.WriteString(effect)
		b.WriteByte('\n')
	}
}

// Process renders the groups of one process as minimized guarded commands.
func Process(sp *protocol.Spec, proc int, groups []protocol.Group) []Command {
	if len(groups) == 0 {
		return nil
	}
	r := newRenderer(sp, proc, len(groups))
	remaining := append([]protocol.Group(nil), groups...)
	var out []Command
	for len(remaining) > 0 {
		effect, covered, rest := r.bestEffect(remaining)
		out = append(out, Command{Proc: proc, Guard: r.guard(covered), Effect: effect, Groups: len(covered)})
		remaining = rest
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Effect < out[j].Effect })
	return out
}

// effectCandidate is a symbolic right-hand side for one written variable:
// the constant val when ri < 0, else the read value rv[ri] plus off,
// reduced modulo mod unless mod is 0 (a plain copy).
type effectCandidate struct {
	render       string
	ri, off, mod int
	val          int
}

func (c *effectCandidate) eval(rv []int) int {
	if c.ri < 0 {
		return c.val
	}
	v := rv[c.ri] + c.off
	if c.mod != 0 {
		v %= c.mod
	}
	return v
}

// renderer holds what rendering one process's commands needs, built once
// per Process call: variable names, read domains and their product, the
// relation trial order, the effect candidates, and the scratch buffers the
// cover search and the guard rendering reuse across commands.
type renderer struct {
	p     *protocol.Process
	names []string
	doms  []int // read-variable domains, parallel to p.Reads
	total int   // product of doms, or -1 if it overflows an int
	order []int // relational left-hand sides: written reads first

	cands [][]effectCandidate // per written variable, in tie-break order

	groups     []protocol.Group // the groups bestEffect is covering
	cover      [][]int          // per written variable, the groups still covered
	choose     []int
	best       int
	bestChoose []int
	bestCover  []int
	all        []int
	covered    []protocol.Group
	keys       []int
}

func newRenderer(sp *protocol.Spec, proc, n int) *renderer {
	p := &sp.Procs[proc]
	r := &renderer{
		p:          p,
		names:      sp.VarNames(),
		doms:       make([]int, len(p.Reads)),
		total:      1,
		cands:      make([][]effectCandidate, len(p.Writes)),
		cover:      make([][]int, len(p.Writes)),
		choose:     make([]int, len(p.Writes)),
		bestChoose: make([]int, len(p.Writes)),
		bestCover:  make([]int, 0, n),
		all:        make([]int, 0, n),
		covered:    make([]protocol.Group, 0, n),
		keys:       make([]int, 0, n),
	}
	for i, id := range p.Reads {
		d := sp.Vars[id].Dom
		r.doms[i] = d
		if r.total < 0 || r.total > math.MaxInt/d {
			r.total = -1
		} else {
			r.total *= d
		}
	}
	// Prefer putting a written variable on the left-hand side, the way the
	// paper writes guards (e.g. "xj == x(j-1) + 1" for process Pj).
	written := func(id int) bool { return slices.Contains(p.Writes, id) }
	for ri, id := range p.Reads {
		if written(id) {
			r.order = append(r.order, ri)
		}
	}
	for ri, id := range p.Reads {
		if !written(id) {
			r.order = append(r.order, ri)
		}
	}

	// Candidate effects per written variable: constants, copies of readable
	// variables, and ±1 offsets of readable variables.
	// Preference order (ties in coverage go to the earlier candidate):
	// copies of other variables, constants, ±1 offsets of other variables,
	// and finally self-offsets (pure counters).
	for wi, wid := range p.Writes {
		dom := sp.Vars[wid].Dom
		lhs := r.names[wid] + " := "
		var copies, offsets, consts, selfs []effectCandidate
		for ri, rid := range p.Reads {
			if rid != wid {
				copies = append(copies, effectCandidate{render: lhs + r.names[rid], ri: ri})
			}
			for _, off := range []int{1, dom - 1} {
				op := " + "
				if off == dom-1 {
					op = " - "
				}
				cand := effectCandidate{render: lhs + r.names[rid] + op + "1", ri: ri, off: off, mod: dom}
				if rid != wid {
					offsets = append(offsets, cand)
				} else {
					selfs = append(selfs, cand)
				}
			}
		}
		for v := 0; v < dom; v++ {
			consts = append(consts, effectCandidate{render: lhs + strconv.Itoa(v), ri: -1, val: v})
		}
		cands := append(copies, consts...)
		cands = append(cands, offsets...)
		r.cands[wi] = append(cands, selfs...)
		r.cover[wi] = make([]int, 0, n)
	}
	return r
}

// bestEffect greedily picks the symbolic effect covering the most groups.
// It returns the effect, the covered groups (in a buffer the next call
// reuses) and the rest, compacted in place into groups' backing array.
func (r *renderer) bestEffect(groups []protocol.Group) (string, []protocol.Group, []protocol.Group) {
	// Pick, per written variable, the candidate combination that covers
	// the most groups simultaneously.
	r.groups = groups
	r.best = -1
	r.all = r.all[:0]
	for gi := range groups {
		r.all = append(r.all, gi)
	}
	r.search(0, r.all)

	covered := r.covered[:0]
	if r.best < 0 {
		// Fall back to rendering the first group verbatim.
		var b strings.Builder
		for wi, wid := range r.p.Writes {
			if wi > 0 {
				b.WriteString("; ")
			}
			b.WriteString(r.names[wid])
			b.WriteString(" := ")
			b.WriteString(strconv.Itoa(groups[0].WriteVals[wi]))
		}
		r.covered = append(covered, groups[0])
		return b.String(), r.covered, groups[1:]
	}
	rest := groups[:0]
	k := 0
	for gi, g := range groups {
		if k < len(r.bestCover) && r.bestCover[k] == gi {
			covered = append(covered, g)
			k++
		} else {
			rest = append(rest, g)
		}
	}
	r.covered = covered
	var b strings.Builder
	for wi, ci := range r.bestChoose {
		if wi > 0 {
			b.WriteString("; ")
		}
		b.WriteString(r.cands[wi][ci].render)
	}
	return b.String(), covered, rest
}

// search extends the candidate choice for written variables wi.. over the
// feasible groups (ascending indices into r.groups). A combination replaces
// the best only with a strictly larger cover, so ties go to the earlier
// candidates; a candidate whose cover cannot beat the best is not followed.
func (r *renderer) search(wi int, feasible []int) {
	if wi == len(r.cands) {
		if len(feasible) > r.best {
			r.best = len(feasible)
			copy(r.bestChoose, r.choose)
			r.bestCover = append(r.bestCover[:0], feasible...)
		}
		return
	}
	for ci := range r.cands[wi] {
		c := &r.cands[wi][ci]
		next := r.cover[wi][:0]
		for _, gi := range feasible {
			g := &r.groups[gi]
			if c.eval(g.ReadVals) == g.WriteVals[wi] {
				next = append(next, gi)
			}
		}
		r.cover[wi] = next
		if len(next) == 0 || len(next) <= r.best {
			continue
		}
		r.choose[wi] = ci
		r.search(wi+1, next)
	}
}

// guard prints the disjunction of the groups' readable valuations, first
// trying relational atoms, then falling back to minimized cubes.
func (r *renderer) guard(groups []protocol.Group) string {
	if rel := r.relationalGuard(groups); rel != "" {
		return rel
	}
	cubes := minimizeCubes(r.doms, groups)
	for _, cube := range cubes {
		if !slices.ContainsFunc(cube, func(vals []int) bool { return vals != nil }) {
			return "true"
		}
	}
	var b strings.Builder
	for i, cube := range cubes {
		if i > 0 {
			b.WriteString(" || ")
		}
		if len(cubes) > 1 {
			b.WriteByte('(')
		}
		first := true
		for ri, vals := range cube {
			if vals == nil {
				continue
			}
			if !first {
				b.WriteString(" && ")
			}
			first = false
			b.WriteString(r.names[r.p.Reads[ri]])
			if len(vals) == 1 {
				b.WriteString(" == ")
				b.WriteString(strconv.Itoa(vals[0]))
				continue
			}
			b.WriteString(" in {")
			for k, v := range vals {
				if k > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(v))
			}
			b.WriteByte('}')
		}
		if len(cubes) > 1 {
			b.WriteByte(')')
		}
	}
	return b.String()
}

// relationalGuard recognizes guards of the form vA == vB ⊕ c or vA != vB
// (with all other readable variables unconstrained).
//
// The groups' read valuations form a set S inside the read-domain product,
// of size total. Over that product, vA == vB ⊕ c (dom(A) = dom(B) = d)
// holds for exactly total/d valuations, one value of A per value of B and
// of the others, and vA != vB for total − total/d. So a relation describes
// S exactly when |S| equals its count and every valuation in S satisfies
// it; |S| is counted once by packing each valuation into one mixed-radix
// integer. The relations are tried in a fixed order (left-hand sides
// written variables first, then B ascending, c ascending, then !=) and the
// first that holds is printed.
func (r *renderer) relationalGuard(groups []protocol.Group) string {
	if len(r.doms) < 2 || r.total < 0 {
		return ""
	}
	keys := r.keys[:0]
	for _, g := range groups {
		if len(g.ReadVals) != len(r.doms) {
			return ""
		}
		k := 0
		for ri, v := range g.ReadVals {
			if v < 0 || v >= r.doms[ri] {
				return "" // outside the product: no relation's set contains it
			}
			k = k*r.doms[ri] + v
		}
		keys = append(keys, k)
	}
	r.keys = keys
	slices.Sort(keys)
	distinct := len(slices.Compact(keys))

	holds := func(rel func(rv []int) bool) bool {
		for _, g := range groups {
			if !rel(g.ReadVals) {
				return false
			}
		}
		return true
	}
	for _, a := range r.order {
		for b := range r.doms {
			if a == b || r.doms[a] != r.doms[b] {
				continue
			}
			dom := r.doms[a]
			nameA, nameB := r.names[r.p.Reads[a]], r.names[r.p.Reads[b]]
			// vA == vB ⊕ c: every valuation fixes c = vA − vB, so only the c
			// of the first group can hold, and no smaller c does.
			if distinct == r.total/dom {
				rv := groups[0].ReadVals
				c := (rv[a] - rv[b] + dom) % dom
				if holds(func(rv []int) bool { return rv[a] == (rv[b]+c)%dom }) {
					switch c {
					case 0:
						return nameA + " == " + nameB
					case dom - 1:
						return nameA + " == " + nameB + " - 1"
					default:
						return nameA + " == " + nameB + " + " + strconv.Itoa(c)
					}
				}
			}
			// vA != vB
			if distinct == r.total-r.total/dom && holds(func(rv []int) bool { return rv[a] != rv[b] }) {
				return nameA + " != " + nameB
			}
		}
	}
	return ""
}

// minimizeCubes widens the groups' read valuations into cubes: each cube
// maps read-variable index → sorted allowed values (nil = don't care).
// Cubes differing only in one variable are merged; variables covering the
// full domain become don't-cares. The first mergeable pair (i, j) in
// lexicographic order is merged each time, into cube i.
func minimizeCubes(doms []int, groups []protocol.Group) [][][]int {
	n, w := len(groups), len(doms)
	cubes := make([][][]int, n)
	dims := make([][]int, n*w)
	vals := make([]int, n*w)
	for gi, g := range groups {
		cube := dims[gi*w : (gi+1)*w : (gi+1)*w]
		for ri, v := range g.ReadVals {
			k := gi*w + ri
			vals[k] = v
			cube[ri] = vals[k : k+1 : k+1]
		}
		cubes[gi] = cube
	}
	// After merging into cube m, every pair before m in lexicographic order
	// is known not to merge unless it involves cube m, which changed: the
	// scan resumes with the pairs (i, m), i < m, then everything from m on.
	m := 0
	for {
		i, j, d := -1, -1, -1
		for a := 0; a < m && i < 0; a++ {
			if d = mergeDim(cubes[a], cubes[m]); d >= 0 {
				i, j = a, m
			}
		}
		for a := m; a < len(cubes) && i < 0; a++ {
			for b := a + 1; b < len(cubes); b++ {
				if d = mergeDim(cubes[a], cubes[b]); d >= 0 {
					i, j = a, b
					break
				}
			}
		}
		if i < 0 {
			return cubes
		}
		union := sortedUnion(cubes[i][d], cubes[j][d])
		if len(union) == doms[d] {
			union = nil
		}
		cubes[i][d] = union
		cubes = append(cubes[:j], cubes[j+1:]...)
		m = i
	}
}

// mergeDim returns the single dimension in which a and b differ, or -1.
func mergeDim(a, b [][]int) int {
	dim := -1
	for d := range a {
		if !sameVals(a[d], b[d]) {
			if dim >= 0 {
				return -1
			}
			dim = d
		}
	}
	return dim
}

func sameVals(a, b []int) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// sortedUnion merges two ascending value lists into their ascending union;
// nil (don't care) absorbs everything.
func sortedUnion(a, b []int) []int {
	if a == nil || b == nil {
		return nil
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
