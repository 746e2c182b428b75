// Package core implements the paper's contribution: the rank-based
// approximation of convergence (Section IV) and the sound three-pass
// heuristic that adds strong convergence to non-stabilizing protocols
// (Section V). The algorithms are written once against the Engine interface
// and run unchanged on the explicit-state engine (internal/explicit) and the
// BDD-based symbolic engine (internal/symbolic).
package core

import (
	"context"
	"time"

	"stsyn/internal/protocol"
)

// Set is an opaque state predicate owned by an Engine. Sets are immutable
// values: every operation returns a new Set.
type Set interface{}

// Group is a handle to a transition group owned by an Engine.
type Group interface {
	// Proc returns the index of the owning process.
	Proc() int
	// ProtocolGroup returns the specification-level identity of the group.
	ProtocolGroup() protocol.Group
}

// Engine abstracts a state-space representation: a boolean algebra of state
// predicates, the protocol's transition groups, image operations, and a
// cycle oracle. Implementations are not safe for concurrent use; parallel
// synthesis runs one engine per goroutine.
type Engine interface {
	// Spec returns the protocol specification the engine was built from.
	Spec() *protocol.Spec

	// Universe is the set of all states; Invariant the set I of legitimate
	// states.
	Universe() Set
	Empty() Set
	Invariant() Set

	Or(a, b Set) Set
	And(a, b Set) Set
	Diff(a, b Set) Set
	Not(a Set) Set
	IsEmpty(a Set) bool
	Equal(a, b Set) bool
	// States returns the number of states in a (exact; float64 because
	// symbolic state spaces exceed uint64).
	States(a Set) float64

	// ActionGroups returns δp as transition groups; CandidateGroups returns
	// every group permitted by the topology, excluding no-ops.
	ActionGroups() []Group
	CandidateGroups() []Group

	// GroupSrc returns the set of source states of g's transitions.
	GroupSrc(g Group) Set
	// GroupSrcIntersects reports whether g's source set intersects X:
	// !IsEmpty(And(GroupSrc(g), X)) without materializing either set. The
	// recovery-candidate filter calls it once per candidate group.
	GroupSrcIntersects(g Group, X Set) bool
	// GroupDstInto reports whether some transition of g ends in X.
	GroupDstInto(g Group, X Set) bool
	// GroupFromTo reports whether some transition of g starts in from and
	// ends in to.
	GroupFromTo(g Group, from, to Set) bool
	// SCCGroups attributes the cycles of a CyclicSCCs result to groups:
	// out[i] lists, in ascending order, the indices of the groups in gs
	// with a transition that starts and ends inside sccs[i] (out[i] is
	// empty when there is none). The sets must be pairwise disjoint, as
	// CyclicSCCs returns them. PairwiseSCCGroups is the definition; an
	// engine may share work across the batch instead of probing pair by
	// pair.
	SCCGroups(gs []Group, sccs []Set) [][]int

	// Pre returns the states with a transition (under any group in gs) into
	// X; Post the states reachable from X in one transition.
	Pre(gs []Group, X Set) Set
	Post(gs []Group, X Set) Set
	// EnabledSources returns the union of the groups' source sets, i.e. the
	// states where at least one group is enabled.
	EnabledSources(gs []Group) Set

	// CyclicSCCs returns the strongly connected components of the union of
	// gs restricted to states in within, keeping only components that
	// contain a cycle (size ≥ 2, or a self-loop).
	CyclicSCCs(gs []Group, within Set) []Set

	// PickState extracts one state from a non-empty set.
	PickState(a Set) (protocol.State, bool)
	// Singleton returns the set containing exactly the given state.
	Singleton(s protocol.State) Set

	// SetSize returns the representation size of a predicate (BDD nodes for
	// the symbolic engine, state count for the explicit engine).
	SetSize(a Set) int
	// ProgramSize returns the representation size of a set of groups (shared
	// BDD nodes / total transition count).
	ProgramSize(gs []Group) int

	// ExportSet serializes a to plain words for a cross-run memo, as a
	// caller-owned copy; ImportSet builds a fresh engine-owned Set from such
	// words, and reports ok=false for a snapshot it cannot honor (wrong
	// universe size, wrong variable order, malformed words) so the caller
	// recomputes. The explicit engine copies its bitset words; the symbolic
	// engine serializes the BDD node list behind a variable-order
	// fingerprint.
	ExportSet(a Set) []uint64
	ImportSet(words []uint64) (Set, bool)

	// SetContext hands the engine the context of the current synthesis run
	// (nil: no cancellation), so long internal fixpoints — SCC enumeration
	// in particular — stop early once it is cancelled. An engine whose
	// context is cancelled may return empty or partial results from any
	// operation; AddConvergence re-checks the context after every engine
	// call that can run long, so a cancelled run always surfaces ctx.Err()
	// rather than a wrong answer.
	SetContext(ctx context.Context)

	// Stats returns cumulative engine counters.
	Stats() *Stats
}

// MutableSets is an optional Engine capability: destructive word-level set
// operations for engines whose Sets are materialized containers (the
// explicit engine's bitsets). The algorithms in this package use them —
// when present — to run their fixpoints without allocating a fresh set per
// operation. The destination of every mutating call must be a Set the
// caller owns (obtained from Dup or from an allocating operation like Or,
// Diff, Pre or EnabledSources); Sets handed out by the engine itself
// (Universe, Invariant, GroupSrc caches) are shared and must never be
// passed as a destination. Engines with hash-consed or refcounted sets
// (the symbolic engine) simply do not implement the interface.
type MutableSets interface {
	// Dup returns a caller-owned mutable copy of a.
	Dup(a Set) Set
	// OrInto sets dst = dst ∪ src.
	OrInto(dst, src Set)
	// DiffInto sets dst = dst \ src.
	DiffInto(dst, src Set)
	// OrSrcInto sets dst = dst ∪ src(g) without materializing g's source
	// set.
	OrSrcInto(dst Set, g Group)
}

// PairwiseSCCGroups answers SCCGroups with one GroupFromTo(g, scc, scc)
// probe per (SCC, group) pair. It defines SCCGroups' result and serves
// engines whose probes need no batching, and the tests as an oracle.
func PairwiseSCCGroups(e Engine, gs []Group, sccs []Set) [][]int {
	out := make([][]int, len(sccs))
	for i, scc := range sccs {
		for gi, g := range gs {
			if e.GroupFromTo(g, scc, scc) {
				out[i] = append(out[i], gi)
			}
		}
	}
	return out
}

// Compactor is an optional Engine capability: reclaim representation
// memory at a safe point. live lists every Set the caller still needs; the
// result holds the migrated equivalents (order preserved). All other Sets
// previously handed out become invalid — unless they are additionally
// protected via RefRegistry. AddConvergence calls this (when implemented)
// at rank-loop boundaries.
type Compactor interface {
	Compact(live []Set) []Set
}

// RefRegistry is an optional Engine capability: register a Set as a
// long-lived root so it survives the engine's internal memory reclamation
// (garbage collection at SCC-fixpoint and Compact safe points). Retain and
// Release nest: a Set retained n times needs n releases. Sets that are
// never retained remain valid only until the engine's next reclamation
// point (any CyclicSCCs or Compact call). AddConvergence retains every Set
// it holds across such calls; callers driving an engine directly should do
// the same.
type RefRegistry interface {
	// Retain registers a as a reclamation root and returns it (engines with
	// stable Set identities return a unchanged).
	Retain(a Set) Set
	// Release undoes one Retain.
	Release(a Set)
}

// SpaceStats is a point-in-time snapshot of an engine's representation
// memory — for the symbolic engine, the BDD substrate's node store, unique
// table, operation cache and garbage collector. Engines without a notion
// of shared storage (the explicit engine) simply do not implement
// SpaceReporter.
type SpaceStats struct {
	LiveNodes       int     `json:"live_nodes"`
	PeakLiveNodes   int     `json:"peak_live_nodes"`
	AllocatedSlots  int     `json:"allocated_slots"`
	UniqueTableLoad float64 `json:"unique_table_load"`
	CacheSize       int     `json:"cache_size"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheEvictions  uint64  `json:"cache_evictions"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	GCRuns          int     `json:"gc_runs"`
	GCReclaimed     uint64  `json:"gc_reclaimed"`
}

// SpaceReporter is an optional Engine capability: report substrate memory
// statistics for observability (service /metrics, CLI -json, benches).
type SpaceReporter interface {
	SpaceStats() SpaceStats
}

// Stats aggregates the measurements the paper reports: how much time is
// spent in SCC detection, and the space taken by SCC predicates.
type Stats struct {
	SCCTime      time.Duration // cumulative time inside CyclicSCCs
	SCCCalls     int           // number of CyclicSCCs invocations
	SCCCount     int           // number of non-trivial SCCs found
	SCCSizeTotal int           // Σ SetSize over all SCCs found

	// RankInfinityFastFail counts the times AddConvergence's rank-∞
	// fast-fail short-circuited provably futile work: recovery batches
	// whose groups were all already known doomed (skipped without a cycle
	// check), doomed groups excluded from incremental retry, and terminal
	// aborts once every candidate reaching a remaining deadlock was
	// doomed.
	RankInfinityFastFail int
}

// AvgSCCSize returns the average representation size of the SCCs found so
// far (0 when none were found).
func (s *Stats) AvgSCCSize() float64 {
	if s.SCCCount == 0 {
		return 0
	}
	return float64(s.SCCSizeTotal) / float64(s.SCCCount)
}
