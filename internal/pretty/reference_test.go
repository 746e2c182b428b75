package pretty_test

// The renderer as it stood before relations were decided by counting,
// kept verbatim (names prefixed ref) as the oracle for the optimized
// renderer: it enumerates the read-domain product for every candidate
// relation, keys valuations by their fmt rendering, merges value lists
// through maps and rebuilds the effect candidates for every command. Its
// output is the contract; TestRenderMatchesReference and
// FuzzRenderEquivalence hold Process to it command for command.

import (
	"fmt"
	"sort"
	"strings"

	"stsyn/internal/pretty"
	"stsyn/internal/protocol"
)

// refProtocol renders all processes' groups as guarded commands, grouped and
// ordered by process.
func refProtocol(sp *protocol.Spec, groups []protocol.Group) string {
	var b strings.Builder
	byProc := make(map[int][]protocol.Group)
	for _, g := range groups {
		byProc[g.Proc] = append(byProc[g.Proc], g)
	}
	for pi := range sp.Procs {
		fmt.Fprintf(&b, "%s:\n", sp.Procs[pi].Name)
		cmds := refProcess(sp, pi, byProc[pi])
		if len(cmds) == 0 {
			b.WriteString("  (no actions)\n")
			continue
		}
		for _, c := range cmds {
			fmt.Fprintf(&b, "  %s -> %s\n", c.Guard, c.Effect)
		}
	}
	return b.String()
}

// refProcess renders the groups of one process as minimized guarded commands.
func refProcess(sp *protocol.Spec, proc int, groups []protocol.Group) []pretty.Command {
	if len(groups) == 0 {
		return nil
	}
	p := &sp.Procs[proc]
	names := sp.VarNames()

	remaining := append([]protocol.Group(nil), groups...)
	var out []pretty.Command
	for len(remaining) > 0 {
		effect, covered, rest := refBestEffect(sp, proc, remaining)
		guard := refRenderGuard(sp, p, covered, names)
		out = append(out, pretty.Command{Proc: proc, Guard: guard, Effect: effect, Groups: len(covered)})
		remaining = rest
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Effect < out[j].Effect })
	return out
}

// refEffectCandidate is a symbolic right-hand side for one written variable.
type refEffectCandidate struct {
	render string
	eval   func(readVals []int) int
}

// refBestEffect greedily picks the symbolic effect covering the most groups.
func refBestEffect(sp *protocol.Spec, proc int, groups []protocol.Group) (string, []protocol.Group, []protocol.Group) {
	p := &sp.Procs[proc]
	names := sp.VarNames()

	// Candidate effects per written variable: constants, copies of readable
	// variables, and ±1 offsets of readable variables.
	// Preference order (ties in coverage go to the earlier candidate):
	// copies of other variables, constants, ±1 offsets of other variables,
	// and finally self-offsets (pure counters).
	candsByVar := make([][]refEffectCandidate, len(p.Writes))
	for wi, wid := range p.Writes {
		dom := sp.Vars[wid].Dom
		var copies, offsets, consts, selfs []refEffectCandidate
		for ri, rid := range p.Reads {
			ri := ri
			if rid != wid {
				copies = append(copies, refEffectCandidate{
					render: fmt.Sprintf("%s := %s", names[wid], names[rid]),
					eval:   func(rv []int) int { return rv[ri] },
				})
			}
			for _, off := range []int{1, dom - 1} {
				off := off
				op, amt := "+", off
				if off == dom-1 {
					op, amt = "-", 1
				}
				cand := refEffectCandidate{
					render: fmt.Sprintf("%s := %s %s %d", names[wid], names[rid], op, amt),
					eval:   func(rv []int) int { return (rv[ri] + off) % dom },
				}
				if rid != wid {
					offsets = append(offsets, cand)
				} else {
					selfs = append(selfs, cand)
				}
			}
		}
		for v := 0; v < dom; v++ {
			v := v
			consts = append(consts, refEffectCandidate{
				render: fmt.Sprintf("%s := %d", names[wid], v),
				eval:   func([]int) int { return v },
			})
		}
		cands := append(copies, consts...)
		cands = append(cands, offsets...)
		cands = append(cands, selfs...)
		candsByVar[wi] = cands
	}

	// Greedy: pick, per written variable, the candidate combination that
	// covers the most groups simultaneously.
	best := -1
	var bestRenders []string
	var bestCover []bool
	choose := make([]int, len(p.Writes))
	var rec func(wi int, feasible []bool)
	covers := func(ci, wi int, g protocol.Group) bool {
		return candsByVar[wi][ci].eval(g.ReadVals) == g.WriteVals[wi]
	}
	rec = func(wi int, feasible []bool) {
		if wi == len(p.Writes) {
			n := 0
			for _, f := range feasible {
				if f {
					n++
				}
			}
			if n > best {
				best = n
				bestRenders = make([]string, len(p.Writes))
				for i, ci := range choose {
					bestRenders[i] = candsByVar[i][ci].render
				}
				bestCover = append([]bool(nil), feasible...)
			}
			return
		}
		for ci := range candsByVar[wi] {
			next := make([]bool, len(groups))
			any := false
			for gi, f := range feasible {
				if f && covers(ci, wi, groups[gi]) {
					next[gi] = true
					any = true
				}
			}
			if !any {
				continue
			}
			choose[wi] = ci
			rec(wi+1, next)
		}
	}
	all := make([]bool, len(groups))
	for i := range all {
		all[i] = true
	}
	rec(0, all)

	var covered, rest []protocol.Group
	for gi, g := range groups {
		if bestCover != nil && bestCover[gi] {
			covered = append(covered, g)
		} else {
			rest = append(rest, g)
		}
	}
	if len(covered) == 0 {
		// Fall back to rendering the first group verbatim.
		g := groups[0]
		var parts []string
		for wi, wid := range p.Writes {
			parts = append(parts, fmt.Sprintf("%s := %d", names[wid], g.WriteVals[wi]))
		}
		return strings.Join(parts, "; "), groups[:1], groups[1:]
	}
	return strings.Join(bestRenders, "; "), covered, rest
}

// refRenderGuard prints the disjunction of the groups' readable valuations,
// first trying relational atoms, then falling back to minimized cubes.
func refRenderGuard(sp *protocol.Spec, p *protocol.Process, groups []protocol.Group, names []string) string {
	if rel := refRelationalGuard(sp, p, groups, names); rel != "" {
		return rel
	}
	cubes := refMinimizeCubes(sp, p, groups)
	var parts []string
	for _, cube := range cubes {
		var atoms []string
		for ri, vals := range cube {
			if vals == nil {
				continue
			}
			if len(vals) == 1 {
				atoms = append(atoms, fmt.Sprintf("%s == %d", names[p.Reads[ri]], vals[0]))
			} else {
				strs := make([]string, len(vals))
				for i, v := range vals {
					strs[i] = fmt.Sprint(v)
				}
				atoms = append(atoms, fmt.Sprintf("%s in {%s}", names[p.Reads[ri]], strings.Join(strs, ",")))
			}
		}
		if len(atoms) == 0 {
			return "true"
		}
		parts = append(parts, strings.Join(atoms, " && "))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	for i, s := range parts {
		parts[i] = "(" + s + ")"
	}
	return strings.Join(parts, " || ")
}

// refRelationalGuard recognizes guards of the form vA == vB ⊕ c or vA != vB
// (with all other readable variables unconstrained).
func refRelationalGuard(sp *protocol.Spec, p *protocol.Process, groups []protocol.Group, names []string) string {
	seen := make(map[string]bool, len(groups))
	for _, g := range groups {
		seen[fmt.Sprint(g.ReadVals)] = true
	}
	doms := make([]int, len(p.Reads))
	for i, id := range p.Reads {
		doms[i] = sp.Vars[id].Dom
	}
	total := 1
	for _, d := range doms {
		total *= d
	}
	// Prefer putting a written variable on the left-hand side, the way the
	// paper writes guards (e.g. "xj == x(j-1) + 1" for process Pj).
	written := make(map[int]bool, len(p.Writes))
	for _, id := range p.Writes {
		written[id] = true
	}
	order := make([]int, 0, len(p.Reads))
	for ri, id := range p.Reads {
		if written[id] {
			order = append(order, ri)
		}
	}
	for ri, id := range p.Reads {
		if !written[id] {
			order = append(order, ri)
		}
	}
	for _, a := range order {
		for b := 0; b < len(p.Reads); b++ {
			if a == b || doms[a] != doms[b] {
				continue
			}
			dom := doms[a]
			// vA == vB ⊕ c
			for c := 0; c < dom; c++ {
				if refMatchesRelation(seen, doms, total, func(rv []int) bool {
					return rv[a] == (rv[b]+c)%dom
				}) {
					switch c {
					case 0:
						return fmt.Sprintf("%s == %s", names[p.Reads[a]], names[p.Reads[b]])
					case dom - 1:
						return fmt.Sprintf("%s == %s - 1", names[p.Reads[a]], names[p.Reads[b]])
					default:
						return fmt.Sprintf("%s == %s + %d", names[p.Reads[a]], names[p.Reads[b]], c)
					}
				}
			}
			// vA != vB
			if refMatchesRelation(seen, doms, total, func(rv []int) bool {
				return rv[a] != rv[b]
			}) {
				return fmt.Sprintf("%s != %s", names[p.Reads[a]], names[p.Reads[b]])
			}
		}
	}
	return ""
}

func refMatchesRelation(seen map[string]bool, doms []int, total int, rel func([]int) bool) bool {
	count := 0
	okAll := true
	protocol.Valuations(doms, func(rv []int) {
		if rel(rv) {
			count++
			if !seen[fmt.Sprint(rv)] {
				okAll = false
			}
		}
	})
	return okAll && count == len(seen)
}

// refMinimizeCubes widens the groups' read valuations into cubes: each cube
// maps read-variable index → sorted allowed values (nil = don't care).
// Cubes differing only in one variable are merged; variables covering the
// full domain become don't-cares.
func refMinimizeCubes(sp *protocol.Spec, p *protocol.Process, groups []protocol.Group) [][][]int {
	var cubes [][][]int
	for _, g := range groups {
		cube := make([][]int, len(p.Reads))
		for ri, v := range g.ReadVals {
			cube[ri] = []int{v}
		}
		cubes = append(cubes, cube)
	}
	doms := make([]int, len(p.Reads))
	for i, id := range p.Reads {
		doms[i] = sp.Vars[id].Dom
	}
	for {
		merged := false
		for i := 0; i < len(cubes) && !merged; i++ {
			for j := i + 1; j < len(cubes) && !merged; j++ {
				if d := refMergeDim(cubes[i], cubes[j]); d >= 0 {
					union := refSortedUnion(cubes[i][d], cubes[j][d])
					cubes[i][d] = union
					if cubes[i][d] != nil && len(cubes[i][d]) == doms[d] {
						cubes[i][d] = nil
					}
					cubes = append(cubes[:j], cubes[j+1:]...)
					merged = true
				}
			}
		}
		if !merged {
			return cubes
		}
	}
}

// refMergeDim returns the single dimension in which a and b differ, or -1.
func refMergeDim(a, b [][]int) int {
	dim := -1
	for d := range a {
		if !refSameVals(a[d], b[d]) {
			if dim >= 0 {
				return -1
			}
			dim = d
		}
	}
	return dim
}

func refSameVals(a, b []int) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func refSortedUnion(a, b []int) []int {
	if a == nil || b == nil {
		return nil
	}
	set := make(map[int]bool)
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		set[v] = true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
