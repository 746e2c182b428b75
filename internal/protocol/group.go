package protocol

import (
	"fmt"
	"strconv"
	"strings"
)

// Group identifies a transition group of a process. Because a process Pj
// cannot read variables outside rj, any transition it takes is grouped with
// all transitions that agree on rj in source and target and leave the
// unreadable variables unchanged (Section II of the paper). Since wj ⊆ rj,
// a group is fully determined by the owning process, a valuation of its
// readable variables (the local source state), and the new values written to
// its writable variables. The group then contains one transition per
// valuation of the unreadable variables.
type Group struct {
	Proc      int   // index into Spec.Procs
	ReadVals  []int // parallel to Procs[Proc].Reads
	WriteVals []int // parallel to Procs[Proc].Writes
}

// Key returns a comparable identity for the group, usable as a map key.
type Key string

// Key returns the canonical identity of g: "proc|r,r,|w,w," in decimal.
// Digests over sorted keys (internal/experiments) depend on this exact
// byte format.
func (g Group) Key() Key {
	var arr [64]byte // keys up to 64 bytes are built on the stack
	buf := arr[:0]
	buf = strconv.AppendInt(buf, int64(g.Proc), 10)
	buf = append(buf, '|')
	for _, v := range g.ReadVals {
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ',')
	}
	buf = append(buf, '|')
	for _, v := range g.WriteVals {
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ',')
	}
	return Key(buf)
}

// IsNoop reports whether the group writes back exactly the current values,
// i.e. every transition in the group is a self-loop.
func (g Group) IsNoop(sp *Spec) bool {
	p := &sp.Procs[g.Proc]
	for wi, id := range p.Writes {
		ri := indexOf(p.Reads, id)
		if g.ReadVals[ri] != g.WriteVals[wi] {
			return false
		}
	}
	return true
}

// Matches reports whether state s agrees with the group's readable
// valuation, i.e. whether s is the source of some transition in g.
func (g Group) Matches(sp *Spec, s State) bool {
	p := &sp.Procs[g.Proc]
	for ri, id := range p.Reads {
		if s[id] != g.ReadVals[ri] {
			return false
		}
	}
	return true
}

// Apply writes the group's update into dst (a copy of src). src must match
// the group. dst and src may alias.
func (g Group) Apply(sp *Spec, src, dst State) {
	p := &sp.Procs[g.Proc]
	copy(dst, src)
	for wi, id := range p.Writes {
		dst[id] = g.WriteVals[wi]
	}
}

// Render prints the group as a single guarded command over the readable
// variables, e.g. "x0==1 && x3==1 -> x0 := 2".
func (g Group) Render(sp *Spec) string {
	p := &sp.Procs[g.Proc]
	names := sp.VarNames()
	var gparts, aparts []string
	for ri, id := range p.Reads {
		gparts = append(gparts, fmt.Sprintf("%s==%d", names[id], g.ReadVals[ri]))
	}
	for wi, id := range p.Writes {
		aparts = append(aparts, fmt.Sprintf("%s := %d", names[id], g.WriteVals[wi]))
	}
	return strings.Join(gparts, " && ") + " -> " + strings.Join(aparts, "; ")
}

func indexOf(ids []int, id int) int {
	for i, x := range ids {
		if x == id {
			return i
		}
	}
	return -1
}

// Valuations calls f with every valuation of variables whose domain sizes
// are doms, in lexicographic order. The slice passed to f is reused.
func Valuations(doms []int, f func(vals []int)) {
	vals := make([]int, len(doms))
	for {
		f(vals)
		i := len(doms) - 1
		for ; i >= 0; i-- {
			vals[i]++
			if vals[i] < doms[i] {
				break
			}
			vals[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// readDoms returns the domain sizes of process p's readable variables.
func (sp *Spec) readDoms(p *Process) []int {
	doms := make([]int, len(p.Reads))
	for i, id := range p.Reads {
		doms[i] = sp.Vars[id].Dom
	}
	return doms
}

// writeDoms returns the domain sizes of process p's writable variables.
func (sp *Spec) writeDoms(p *Process) []int {
	doms := make([]int, len(p.Writes))
	for i, id := range p.Writes {
		doms[i] = sp.Vars[id].Dom
	}
	return doms
}

// ActionGroups decomposes the guarded commands of process proc into
// transition groups: one group per readable valuation satisfying a guard
// (and per distinct result, if several actions are enabled). The groups
// together represent exactly the process's transitions in δp. No-op groups
// (guards whose statement changes nothing) are kept: δp must be preserved
// verbatim.
func (sp *Spec) ActionGroups(proc int) []Group {
	p := &sp.Procs[proc]
	var out []Group
	seen := make(map[Key]bool)
	scratch := make(State, len(sp.Vars))
	Valuations(sp.readDoms(p), func(rv []int) {
		for i := range scratch {
			scratch[i] = 0
		}
		for ri, id := range p.Reads {
			scratch[id] = rv[ri]
		}
		for _, a := range p.Actions {
			if !a.Guard.EvalBool(scratch) {
				continue
			}
			wv := make([]int, len(p.Writes))
			for wi, id := range p.Writes {
				wv[wi] = scratch[id] // unassigned writable vars keep their value
			}
			for _, as := range a.Assigns {
				v := as.Expr.EvalInt(scratch)
				if v < 0 || v >= sp.Vars[as.Var].Dom {
					// Out-of-domain writes would leave the state space;
					// treat the action as disabled for this valuation.
					wv = nil
					break
				}
				wv[indexOf(p.Writes, as.Var)] = v
			}
			if wv == nil {
				continue
			}
			g := Group{Proc: proc, ReadVals: append([]int(nil), rv...), WriteVals: wv}
			if k := g.Key(); !seen[k] {
				seen[k] = true
				out = append(out, g)
			}
		}
	})
	return out
}

// AllActionGroups returns the action groups of every process: δp as a set
// of groups.
func (sp *Spec) AllActionGroups() []Group {
	var out []Group
	for pi := range sp.Procs {
		out = append(out, sp.ActionGroups(pi)...)
	}
	return out
}

// CandidateGroups enumerates every group process proc could possibly
// execute under its read/write restrictions, excluding no-op groups (a
// no-op group is a set of self-loops and can never help convergence, only
// create non-progress cycles). This is the raw material for recovery.
func (sp *Spec) CandidateGroups(proc int) []Group {
	p := &sp.Procs[proc]
	var out []Group
	wdoms := sp.writeDoms(p)
	Valuations(sp.readDoms(p), func(rv []int) {
		rvCopy := append([]int(nil), rv...)
		Valuations(wdoms, func(wv []int) {
			g := Group{Proc: proc, ReadVals: rvCopy, WriteVals: append([]int(nil), wv...)}
			if !g.IsNoop(sp) {
				out = append(out, g)
			}
		})
	})
	return out
}

// UnreadCount returns the number of transitions per group of process proc,
// i.e. the product of the domains of its unreadable variables.
func (sp *Spec) UnreadCount(proc int) uint64 {
	p := &sp.Procs[proc]
	n := uint64(1)
	rs := make(map[int]bool, len(p.Reads))
	for _, id := range p.Reads {
		rs[id] = true
	}
	for id, v := range sp.Vars {
		if !rs[id] {
			n *= uint64(v.Dom)
		}
	}
	return n
}
