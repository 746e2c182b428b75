package protocol

import (
	"fmt"
	"io"
	"strings"
)

// WriteCanonicalSpec writes a deterministic rendering of the specification:
// variables with domains, per-process localities, actions as rendered
// guarded commands, and the rendered invariant. Expression rendering is
// syntactic, so specs are equal iff they were written identically up to
// whitespace — a sound (never merging distinct problems) and cheap notion
// of content equality. The spec's Name is deliberately excluded: it labels
// the protocol but does not affect any result derived from it.
//
// The service's result-cache key (internal/service.CanonicalKey) writes
// the spec through here.
func WriteCanonicalSpec(w io.Writer, sp *Spec) {
	names := sp.VarNames()
	var b strings.Builder
	for _, v := range sp.Vars {
		fmt.Fprintf(&b, "var %s:%d\n", v.Name, v.Dom)
	}
	for pi := range sp.Procs {
		p := &sp.Procs[pi]
		fmt.Fprintf(&b, "proc %s r=%v w=%v\n", p.Name, p.Reads, p.Writes)
		for _, a := range p.Actions {
			fmt.Fprintf(&b, "  %s ->", a.Guard.Render(names))
			for _, as := range a.Assigns {
				fmt.Fprintf(&b, " %s:=%s;", names[as.Var], as.Expr.Render(names))
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "invariant %s\n", sp.Invariant.Render(names))
	io.WriteString(w, b.String())
}
