// Package stsyn is a synthesizer of self-stabilization: it automatically
// adds weak or strong convergence to non-stabilizing finite-state network
// protocols, implementing the lightweight method of Ebnenasir and Farahat,
// "A Lightweight Method for Automated Design of Convergence" (IPPS 2011).
//
// A protocol is a set of processes over finite-domain shared variables with
// per-process read/write restrictions (the topology) and guarded-command
// actions. Given such a protocol p and a predicate I of legitimate states
// closed in p, AddConvergence produces a protocol pss that behaves exactly
// like p inside I and converges to I from every other state — pss is
// self-stabilizing by construction (and every result is re-checkable with
// the Verify functions).
//
// Two interchangeable engines implement the state-space reasoning: an
// explicit-state engine (bitsets + Tarjan SCC) for small instances, and a
// symbolic engine (a from-scratch BDD package + Gentilini-style symbolic
// SCC enumeration) that scales to the paper's largest experiments, e.g.
// three-coloring with 40 processes and ≈3^40 states.
//
// Quickstart:
//
//	sp := stsyn.TokenRing(4, 3)                    // Dijkstra's ring, non-stabilizing
//	res, eng, err := stsyn.Synthesize(sp, stsyn.Options{})
//	if err != nil { ... }
//	fmt.Println(stsyn.Render(eng, res.Protocol))   // prints Dijkstra's protocol
package stsyn

import (
	"errors"

	"stsyn/internal/cli"
	"stsyn/internal/core"
	"stsyn/internal/explicit"
	"stsyn/internal/pretty"
	"stsyn/internal/protocol"
	"stsyn/internal/symbolic"
)

// Specification model (see package documentation for the formal model).
type (
	// Spec is a protocol specification: variables, processes with locality
	// and actions, and the legitimate-state predicate.
	Spec = protocol.Spec
	// Var is a protocol variable with domain {0..Dom-1}.
	Var = protocol.Var
	// Process is a process with its read/write restrictions and actions.
	Process = protocol.Process
	// Action is a guarded command.
	Action = protocol.Action
	// Assignment is one variable update of an action.
	Assignment = protocol.Assignment
	// State is a valuation of all variables.
	State = protocol.State
	// TransitionGroup identifies a transition group (the atomic unit the
	// synthesizer adds or removes, induced by read restrictions).
	TransitionGroup = protocol.Group
)

// Engine abstracts the state-space representation used by synthesis and
// verification. Engines are not safe for concurrent use.
type Engine = core.Engine

// Group is an engine-bound transition-group handle.
type Group = core.Group

// Set is an opaque engine-owned state predicate.
type Set = core.Set

// SpaceStats is a snapshot of an engine's state-space substrate (node
// store, operation cache, garbage collector); SpaceReporter is implemented
// by engines that can produce one (currently the symbolic engine).
type (
	SpaceStats    = core.SpaceStats
	SpaceReporter = core.SpaceReporter
)

// NewExplicitEngine builds the bitset-based explicit-state engine.
// maxStates of 0 applies a default limit of 2^24 states.
func NewExplicitEngine(sp *Spec, maxStates uint64) (Engine, error) {
	return explicit.New(sp, maxStates)
}

// NewSymbolicEngine builds the BDD-based symbolic engine.
func NewSymbolicEngine(sp *Spec) (Engine, error) {
	return symbolic.New(sp)
}

// NewEngine picks an engine automatically: explicit for state spaces up to
// 2^20 states, symbolic beyond — engine "auto" of the CLI and the service.
func NewEngine(sp *Spec) (Engine, error) {
	return cli.NewEngine(sp, "auto")
}

// Synthesis options and results.
type (
	// Options configures AddConvergence (property and recovery schedule).
	Options = core.Options
	// Result is a synthesis outcome: the protocol, added/removed groups,
	// ranks, and the measurements the paper reports.
	Result = core.Result
	// Attempt is the outcome of one schedule in TrySchedules.
	Attempt = core.Attempt
	// Convergence selects weak or strong convergence.
	Convergence = core.Convergence
	// CycleResolution selects how cycles created by recovery batches are
	// resolved (BatchResolution is the paper's; IncrementalResolution keeps
	// strictly more groups and succeeds on some instances batch mode loses,
	// e.g. the 5-process token ring with domain 5).
	CycleResolution = core.CycleResolution
)

// Cycle-resolution strategies.
const (
	BatchResolution       = core.BatchResolution
	IncrementalResolution = core.IncrementalResolution
)

// Convergence properties.
const (
	Strong = core.Strong
	Weak   = core.Weak
)

// Failure modes of the synthesizer (compare with errors.Is).
var (
	ErrNotClosed            = core.ErrNotClosed
	ErrUnresolvableCycle    = core.ErrUnresolvableCycle
	ErrNoStabilizingVersion = core.ErrNoStabilizingVersion
	ErrDeadlocksRemain      = core.ErrDeadlocksRemain
	// ErrSkippedAttempt marks TrySchedules attempts never started because
	// another schedule had already succeeded.
	ErrSkippedAttempt = core.ErrSkipped
)

// AddConvergence adds convergence to the engine's protocol (Problem III.1
// of the paper): the result preserves the protocol's behaviour inside I and
// converges to I from everywhere else.
func AddConvergence(e Engine, opts Options) (*Result, error) {
	return core.AddConvergence(e, opts)
}

// Synthesize is the convenience entry point: it builds an engine for sp
// (automatically chosen) and runs AddConvergence.
func Synthesize(sp *Spec, opts Options) (*Result, Engine, error) {
	e, err := NewEngine(sp)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.AddConvergence(e, opts)
	return res, e, err
}

// AddConvergenceAuto tries the paper's batch cycle resolution first and, if
// (and only if) deadlocks remain, retries with the incremental refinement.
// A fresh engine is built per attempt so the reported statistics are clean;
// the engine used by the successful attempt is returned.
func AddConvergenceAuto(factory func() (Engine, error), opts Options) (*Result, Engine, error) {
	e, err := factory()
	if err != nil {
		return nil, nil, err
	}
	o := opts
	o.CycleResolution = BatchResolution
	res, err := core.AddConvergence(e, o)
	if err == nil || !errorsIs(err, ErrDeadlocksRemain) {
		return res, e, err
	}
	e2, err2 := factory()
	if err2 != nil {
		return nil, nil, err2
	}
	o.CycleResolution = IncrementalResolution
	res2, err2 := core.AddConvergence(e2, o)
	if err2 != nil {
		// Report the original (paper-strategy) failure if both lose.
		return res, e, err
	}
	return res2, e2, nil
}

// TrySchedules fans one synthesis attempt per recovery schedule out over a
// goroutine pool (the paper's Figure 1 suggests one machine per schedule)
// and returns the first success.
func TrySchedules(factory func() (Engine, error), opts Options, schedules [][]int, workers int) (*Attempt, []Attempt, error) {
	return core.TrySchedules(core.EngineFactory(factory), opts, schedules, workers)
}

// Schedule helpers.
var (
	// DefaultSchedule is (P1, …, Pk-1, P0), the paper's default.
	DefaultSchedule = core.DefaultSchedule
	// IdentitySchedule is (P0, …, Pk-1).
	IdentitySchedule = core.IdentitySchedule
	// Rotations returns the k cyclic rotations of the identity schedule.
	Rotations = core.Rotations
	// AllSchedules returns all k! schedules (small k only).
	AllSchedules = core.AllSchedules
)

func errorsIs(err, target error) bool { return errors.Is(err, target) }

// Render prints a synthesized protocol as minimized guarded commands, the
// form the paper uses to present its results.
func Render(e Engine, groups []Group) string {
	pgs := make([]protocol.Group, len(groups))
	for i, g := range groups {
		pgs[i] = g.ProtocolGroup()
	}
	return pretty.Protocol(e.Spec(), pgs)
}
