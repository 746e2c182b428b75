package stsyn

import (
	"stsyn/internal/lightweight"
	"stsyn/internal/protocol"
	"stsyn/internal/symmetry"
)

// The lightweight method of the paper's Figure 1: synthesize small
// instances, fan schedules out in parallel, climb to larger instances, and
// generalize ring solutions by re-instantiating their relative form.
type (
	// LadderConfig drives Climb.
	LadderConfig = lightweight.Config
	// LadderInstance is one rung's outcome.
	LadderInstance = lightweight.Instance
	// Automorphism is a candidate structural symmetry (variable permutation
	// plus induced process permutation).
	Automorphism = symmetry.Automorphism
)

// Climb synthesizes instances for k = from..to, stopping at the first rung
// the heuristic loses.
func Climb(cfg LadderConfig, from, to int) []LadderInstance {
	return lightweight.Climb(cfg, from, to)
}

// GeneralizeRing lifts a synthesized k-ring protocol to k2 processes using
// the relative rule of the template process for everything from split
// onward; AutoGeneralizeRing picks split/template from the symmetry
// classes. The result is a conjecture — verify it (cheap) before use.
func GeneralizeRing(buildSpec func(int) *Spec, k int, groups []TransitionGroup, split, template, k2 int) ([]TransitionGroup, error) {
	return lightweight.GeneralizeRing(buildSpec, k, groups, split, template, k2)
}

// AutoGeneralizeRing is GeneralizeRing with split/template inferred from
// rotation-symmetry classes; it refuses asymmetric protocols.
func AutoGeneralizeRing(buildSpec func(int) *Spec, k int, groups []TransitionGroup, k2 int) ([]TransitionGroup, error) {
	return lightweight.AutoGeneralizeRing(buildSpec, k, groups, k2)
}

// RingRotation returns the rotate-by-one automorphism of a k-ring protocol
// (variable i owned by process i; extra variables fixed).
func RingRotation(sp *Spec, k int) Automorphism { return symmetry.Rotation(sp, k) }

// Symmetric reports whether the protocol is invariant under the
// automorphism.
func Symmetric(sp *Spec, groups []TransitionGroup, a Automorphism) bool {
	return symmetry.Symmetric(sp, groups, a)
}

// SymmetryClasses partitions processes into classes of identical-up-to-
// renaming behaviour under powers of the automorphism.
func SymmetryClasses(sp *Spec, groups []TransitionGroup, a Automorphism) ([][]int, error) {
	return symmetry.Classes(sp, groups, a)
}

// ProtocolGroups converts engine-bound group handles to specification-level
// transition groups (for the symmetry and generalization APIs).
func ProtocolGroups(groups []Group) []TransitionGroup {
	out := make([]protocol.Group, len(groups))
	for i, g := range groups {
		out[i] = g.ProtocolGroup()
	}
	return out
}

// BindGroups resolves specification-level groups to an engine's handles
// (every group must be realizable under the engine's topology).
func BindGroups(e Engine, pgs []TransitionGroup) ([]Group, error) {
	byKey := make(map[protocol.Key]Group)
	for _, g := range e.ActionGroups() {
		byKey[g.Key()] = g
	}
	for _, g := range e.CandidateGroups() {
		byKey[g.Key()] = g
	}
	out := make([]Group, 0, len(pgs))
	for _, pg := range pgs {
		g, ok := byKey[pg.Key()]
		if !ok {
			return nil, errUnrealizable(pg, e.Spec())
		}
		out = append(out, g)
	}
	return out, nil
}

func errUnrealizable(pg TransitionGroup, sp *Spec) error {
	return &UnrealizableGroupError{Group: pg, Spec: sp}
}

// UnrealizableGroupError reports a group that does not exist under the
// engine's topology (e.g. a no-op group, or one from a different spec).
type UnrealizableGroupError struct {
	Group TransitionGroup
	Spec  *Spec
}

func (e *UnrealizableGroupError) Error() string {
	return "stsyn: group " + e.Group.Render(e.Spec) + " is not realizable under the protocol's topology"
}
