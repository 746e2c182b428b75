package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"stsyn/internal/protocol"
)

// Convergence selects the property to add (Problem III.1).
type Convergence int

const (
	// Strong convergence: from any state, every computation reaches I.
	Strong Convergence = iota
	// Weak convergence: from any state, some computation reaches I.
	Weak
)

func (c Convergence) String() string {
	if c == Weak {
		return "weak"
	}
	return "strong"
}

// Options configures AddConvergence.
type Options struct {
	// Ctx, when non-nil, bounds the synthesis run: AddConvergence checks it
	// at every pass, rank and recovery-batch boundary (and context-aware
	// engines additionally inside their SCC fixpoints) and returns
	// context.Canceled or context.DeadlineExceeded instead of running to
	// completion. nil means context.Background().
	Ctx context.Context
	// Convergence is the property to add; the default is Strong.
	Convergence Convergence
	// Schedule is the recovery schedule: the order in which processes are
	// given the chance to contribute recovery groups. nil uses the paper's
	// default (P1, …, Pk-1, P0). Must be a permutation of 0..k-1.
	Schedule []int
	// CycleResolution selects how cycles created by a batch of recovery
	// groups are resolved; the default is the paper's conservative batch
	// removal.
	CycleResolution CycleResolution
	// Log, when non-nil, receives a progress trace of the heuristic
	// (passes, batches, cycle resolutions).
	Log func(format string, args ...interface{})
}

// CycleResolution selects a cycle-resolution strategy for Add_Recovery.
type CycleResolution int

const (
	// BatchResolution is the paper's strategy (Identify_Resolve_Cycles,
	// Figure 3): drop every added group with a transition inside an SCC of
	// pss ∪ added. Simple, but an entire batch can annihilate itself when
	// its groups form cycles only with each other.
	BatchResolution CycleResolution = iota
	// IncrementalResolution refines the strategy along the lines the
	// paper's Section V names as future work ("more intelligent methods of
	// cycle resolution"): groups flagged by the batch check are retried one
	// at a time, keeping each group whose individual addition leaves
	// pss|¬I acyclic. Strictly more groups survive; the result is still
	// cycle-free by construction.
	IncrementalResolution
)

// Failure modes of the heuristic.
var (
	// ErrNotClosed reports that I is not closed in p — a violated input
	// assumption of Problem III.1.
	ErrNotClosed = errors.New("invariant is not closed in the protocol")
	// ErrUnresolvableCycle reports a non-progress cycle of p in ¬I whose
	// groups have groupmates starting in I; such cycles cannot be removed
	// without changing δp|I (preprocessing step of Section V).
	ErrUnresolvableCycle = errors.New("protocol has a non-progress cycle outside I with groupmates inside I")
	// ErrNoStabilizingVersion reports states of rank ∞: by Theorem IV.1 no
	// stabilizing version of the protocol exists at all.
	ErrNoStabilizingVersion = errors.New("states with rank ∞ exist; no stabilizing version exists (Theorem IV.1)")
	// ErrDeadlocksRemain reports that the heuristic's three passes could not
	// resolve every deadlock; the heuristic (which is sound but incomplete)
	// declares failure.
	ErrDeadlocksRemain = errors.New("unresolved deadlock states remain after pass 3")
)

// Result is the outcome of AddConvergence.
type Result struct {
	// Protocol is δpss: the groups of the synthesized protocol.
	Protocol []Group
	// Added are the recovery groups added to δp; Removed are initial groups
	// of p removed by cycle preprocessing (possible only for groups lying
	// entirely outside I).
	Added   []Group
	Removed []Group

	// Ranks are the state predicates Rank[0..M] (Rank[0] = I).
	Ranks []Set
	// PassCompleted is the pass (1–3) in which the last deadlock was
	// resolved, or 0 if p had no deadlocks to resolve.
	PassCompleted int

	// Measurements in the units the paper reports.
	RankingTime time.Duration // time in ComputeRanks
	SCCTime     time.Duration // cumulative time in SCC detection
	TotalTime   time.Duration
	ProgramSize int     // representation size of δpss
	AvgSCCSize  float64 // average representation size of detected SCCs
	SCCCount    int
	// RankInfinityFastFail counts the rank-∞ fast-fail short-circuits the
	// run took (see Stats.RankInfinityFastFail).
	RankInfinityFastFail int
}

// MaxRank returns M, the highest finite rank.
func (r *Result) MaxRank() int { return len(r.Ranks) - 1 }

type synthesizer struct {
	//lint:ignore ctxflow run-scoped carrier: set once from Options.Ctx at AddConvergence entry and dropped with the run
	ctx      context.Context
	e        Engine
	I        Set
	notI     Set
	sched    []int
	cycleRes CycleResolution
	logf     func(format string, args ...interface{})

	pss     []Group
	inPss   map[protocol.Key]bool
	enabled Set // cached union of the source sets of pss (incremental)

	// Recovery candidates (constraint C1 pre-applied), per process.
	candsByProc [][]Group

	deadlocks Set

	// doomed marks candidate groups proven unacceptable for the rest of
	// the run: g is doomed when some SCC of pss ∪ added contained g as its
	// only added group, so pss ∪ {g} already has a cycle in ¬I. pss only
	// grows, so the cycle persists and every future Identify_Resolve_Cycles
	// batch flags g again (and every incremental retry of g alone fails).
	// The rank-∞ fast-fail spends this knowledge two ways — skipping
	// all-doomed batches and skipping doomed incremental retries — each of
	// which provably leaves the synthesized protocol and the final
	// deadlock set byte-identical (see DESIGN.md). nil when the run has
	// fast-fail switched off (see addConvergence).
	doomed map[protocol.Key]bool

	// futile remembers candidate batches (by fingerprint) whose cycle check
	// flagged every group and whose retries recovered nothing, so the batch
	// left pss untouched. Valid while pss is unchanged — accept() clears it
	// — and replayed as "skip the whole batch". nil when fast-fail is off.
	futile map[string]struct{}
}

// AddConvergence runs the paper's algorithm: preprocessing (cycle check and
// ranking), then — for strong convergence — the three passes of Section V.
// On success the returned protocol is stabilizing to I by construction.
func AddConvergence(e Engine, opts Options) (*Result, error) {
	return addConvergence(e, opts, true)
}

// addConvergence is AddConvergence with the rank-∞ fast-fail switchable.
// With fastFail off the run grinds through every batch the fast-fail
// would skip; the outcome must not change. The switch is interleaved with
// the algorithm, so the differential tests reach it through
// export_test.go rather than through a copy of the algorithm.
func addConvergence(e Engine, opts Options, fastFail bool) (*Result, error) {
	start := time.Now() //lint:ignore determinism wall-clock result timing only; never feeds a synthesis decision
	res := &Result{}
	defer func() {
		res.TotalTime = time.Since(start) //lint:ignore determinism wall-clock result timing only; never feeds a synthesis decision
		st := e.Stats()
		res.SCCTime = st.SCCTime
		res.AvgSCCSize = st.AvgSCCSize()
		res.SCCCount = st.SCCCount
		res.RankInfinityFastFail = st.RankInfinityFastFail
	}()

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background() //lint:ignore ctxflow documented API default: Options.Ctx nil means Background
	}
	e.SetContext(ctx)

	k := len(e.Spec().Procs)
	sched, err := NormalizeSchedule(opts.Schedule, k)
	if err != nil {
		return res, err
	}

	s := &synthesizer{
		ctx:      ctx,
		e:        e,
		sched:    sched,
		cycleRes: opts.CycleResolution,
		inPss:    make(map[protocol.Key]bool),
		logf:     opts.Log,
	}
	if fastFail {
		s.doomed = make(map[protocol.Key]bool)
		s.futile = make(map[string]struct{})
	}
	s.I = e.Invariant()
	s.notI = e.Not(e.Invariant())
	if s.logf == nil {
		s.logf = func(string, ...interface{}) {}
	}
	for _, g := range dedupeGroups(e.ActionGroups()) {
		s.pss = append(s.pss, g)
		s.inPss[g.Key()] = true
	}

	// Input assumption: I closed in p.
	for _, g := range s.pss {
		if e.GroupFromTo(g, s.I, s.notI) {
			return res, fmt.Errorf("%w: group %s", ErrNotClosed,
				g.ProtocolGroup().Render(e.Spec()))
		}
	}

	// Preprocessing: non-progress cycles of p in ¬I matter only for strong
	// convergence. Cycle groups with groupmates in I are fatal; groups
	// entirely outside I may be removed without violating δpss|I = δp|I.
	if opts.Convergence == Strong {
		if err := s.removeInitialCycles(res); err != nil {
			return res, err
		}
	}

	candidates := RecoveryCandidates(e)
	s.candsByProc = make([][]Group, k)
	for _, g := range candidates {
		s.candsByProc[g.Proc()] = append(s.candsByProc[g.Proc()], g)
	}

	// Ranking (the approximation of convergence, Section IV).
	t0 := time.Now() //lint:ignore determinism wall-clock result timing only; never feeds a synthesis decision
	pim := pimFrom(s.pss, candidates)
	ranks, infinite, err := computeRanks(ctx, e, pim)
	res.RankingTime = time.Since(t0) //lint:ignore determinism wall-clock result timing only; never feeds a synthesis decision
	res.Ranks = ranks
	if err != nil {
		return res, err
	}
	if !e.IsEmpty(infinite) {
		st, _ := e.PickState(infinite)
		return res, fmt.Errorf("%w: e.g. state %v", ErrNoStabilizingVersion, st)
	}

	if opts.Convergence == Weak {
		// Theorem IV.1: pim itself is a weakly stabilizing version of p.
		s.finish(res, pim)
		return res, nil
	}

	s.enabled = e.EnabledSources(s.pss)
	s.deadlocks = e.Diff(s.notI, s.enabled)
	if e.IsEmpty(s.deadlocks) {
		// p is already strongly converging after cycle preprocessing.
		s.finish(res, s.pss)
		return res, nil
	}

	for pass := 1; pass <= 2; pass++ {
		for i := 1; i < len(ranks); i++ {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			from := e.And(ranks[i], s.deadlocks)
			if e.IsEmpty(from) {
				continue
			}
			if s.addConvergence(from, ranks[i-1], pass) {
				res.PassCompleted = pass
				s.finish(res, s.pss)
				return res, nil
			}
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
	}
	// Pass 3: from any remaining deadlock to anywhere (constraint C2
	// relaxed).
	if s.addConvergence(s.deadlocks, e.Universe(), 3) {
		res.PassCompleted = 3
		s.finish(res, s.pss)
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	st, _ := e.PickState(s.deadlocks)
	return res, fmt.Errorf("%w: %v deadlocks remain, e.g. state %v",
		ErrDeadlocksRemain, e.States(s.deadlocks), st)
}

// removeInitialCycles implements the first preprocessing step of Section V.
func (s *synthesizer) removeInitialCycles(res *Result) error {
	sccs := s.e.CyclicSCCs(s.pss, s.notI)
	if err := s.ctx.Err(); err != nil {
		// A cancelled engine may have returned a partial SCC list; abort
		// before drawing any conclusion from it.
		return err
	}
	if len(sccs) == 0 {
		return nil
	}
	remove := make(map[protocol.Key]bool)
	for i, within := range s.e.SCCGroups(s.pss, sccs) {
		for _, gi := range within {
			g := s.pss[gi]
			if s.e.GroupSrcIntersects(g, s.I) {
				st, _ := s.e.PickState(sccs[i])
				return fmt.Errorf("%w: cycle through state %v uses group %s",
					ErrUnresolvableCycle, st, g.ProtocolGroup().Render(s.e.Spec()))
			}
			remove[g.Key()] = true
		}
	}
	var kept []Group
	for _, g := range s.pss {
		if remove[g.Key()] {
			res.Removed = append(res.Removed, g)
			delete(s.inPss, g.Key())
		} else {
			kept = append(kept, g)
		}
	}
	s.pss = kept
	return nil
}

// addConvergence is the paper's Add_Convergence (Figure 3): give each
// process, in schedule order, the chance to add recovery from From to To.
// Returns true when every deadlock has been resolved.
func (s *synthesizer) addConvergence(from, to Set, pass int) bool {
	for _, proc := range s.sched {
		if s.ctx.Err() != nil {
			// The caller re-checks the context and surfaces its error.
			return false
		}
		s.addRecovery(proc, from, to, pass)
		s.deadlocks = s.e.Diff(s.notI, s.enabled)
		if s.e.IsEmpty(s.deadlocks) {
			return true
		}
		// In pass 1 the ruled-out set is refreshed with the new deadlock
		// states after each process (Figure 3, line 4); addRecovery reads
		// s.deadlocks directly, so this happens automatically.
	}
	return false
}

// addRecovery is the paper's Add_Recovery: collect the groups of process
// proc that contain a From→To transition and are not ruled out by the
// current pass, then drop any that would close a cycle in ¬I
// (Identify_Resolve_Cycles) and add the rest to pss.
func (s *synthesizer) addRecovery(proc int, from, to Set, pass int) {
	var added []Group
	allDoomed := true
	for _, g := range s.candsByProc[proc] {
		k := g.Key()
		if s.inPss[k] {
			continue
		}
		if !s.e.GroupFromTo(g, from, to) {
			continue
		}
		// Constraint C4, enforced only in pass 1: no groupmate transition
		// may reach a deadlock state.
		if pass == 1 && s.e.GroupDstInto(g, s.deadlocks) {
			continue
		}
		added = append(added, g)
		if !s.doomed[k] {
			allDoomed = false
		}
	}
	if len(added) == 0 {
		return
	}
	if s.doomed != nil && allDoomed {
		// Rank-∞ fast-fail: every group of the batch is already known
		// doomed, so the cycle check would flag them all and (under
		// IncrementalResolution) every retry would fail — the batch cannot
		// change pss. Skip the SCC work outright.
		s.e.Stats().RankInfinityFastFail++
		s.logf("pass %d proc %d: candidate batch %d skipped, all groups known doomed", pass, proc, len(added))
		return
	}
	var fp string
	if s.futile != nil {
		// Futile-batch memo: Identify_Resolve_Cycles is a deterministic
		// function of (pss, added, ¬I), and pss is unchanged since a batch
		// remembered here ran (the memo is cleared on every accept). The
		// same futile batch recurs across rank cells and passes — the cycle
		// check flagged every group then, so it would flag every group now.
		fp = s.batchFingerprint(added)
		if _, ok := s.futile[fp]; ok {
			s.e.Stats().RankInfinityFastFail++
			s.logf("pass %d proc %d: candidate batch %d skipped, known futile against current pss", pass, proc, len(added))
			return
		}
	}
	union := append(append([]Group(nil), s.pss...), added...)
	bad := s.identifyResolveCycles(union, added)
	if s.ctx.Err() != nil {
		// Cancellation inside the SCC check can leave bad incomplete;
		// accepting groups anyway could produce a cyclic (wrong) protocol.
		return
	}
	kept := 0
	var retry []Group
	for i, g := range added {
		if bad[i] {
			retry = append(retry, g)
			continue
		}
		// Dropping edges cannot create cycles, so the unflagged groups stay
		// jointly safe even after the flagged ones are removed.
		s.accept(g)
		kept++
	}
	recovered := 0
	if s.cycleRes == IncrementalResolution {
		// Retry the flagged groups one at a time against the grown pss.
		// Doomed groups are skipped: pss ∪ {g} is known cyclic, so the
		// trial check would reject g anyway.
		for _, g := range retry {
			if s.doomed[g.Key()] {
				s.e.Stats().RankInfinityFastFail++
				continue
			}
			trial := append(append([]Group(nil), s.pss...), g)
			if len(s.e.CyclicSCCs(trial, s.notI)) == 0 && s.ctx.Err() == nil {
				s.accept(g)
				recovered++
			}
		}
	}
	if s.futile != nil && kept == 0 && recovered == 0 && s.ctx.Err() == nil {
		s.futile[fp] = struct{}{}
	}
	s.logf("pass %d proc %d: candidate batch %d, cycle-resolved away %d, kept %d (incremental retry recovered %d)",
		pass, proc, len(added), len(added)-kept-recovered, kept+recovered, recovered)
}

// accept adds a recovery group to pss. On a MutableSets engine the enabled
// set (a private copy built by EnabledSources) grows in place, instead of
// cloning the group's source set and the union per accepted group.
func (s *synthesizer) accept(g Group) {
	if len(s.futile) > 0 {
		// pss changes: remembered batch outcomes no longer replay.
		s.futile = make(map[string]struct{})
	}
	s.pss = append(s.pss, g)
	s.inPss[g.Key()] = true
	if ms, ok := s.e.(MutableSets); ok {
		ms.OrSrcInto(s.enabled, g)
		return
	}
	s.enabled = s.e.Or(s.enabled, s.e.GroupSrc(g))
}

// identifyResolveCycles is the paper's Identify_Resolve_Cycles: find the
// SCCs of pss ∪ added restricted to ¬I and mark every *added* group with a
// transition inside an SCC for removal (the conservative cycle resolution
// the paper describes). bad[i] reports the mark of added[i].
func (s *synthesizer) identifyResolveCycles(union, added []Group) (bad []bool) {
	bad = make([]bool, len(added))
	sccs := s.e.CyclicSCCs(union, s.notI)
	for _, within := range s.e.SCCGroups(added, sccs) {
		for _, gi := range within {
			bad[gi] = true
		}
		// Doom learning: an SCC whose internal edges involve exactly one
		// added group proves pss ∪ {that group} cyclic in ¬I. pss only
		// grows, so the cycle persists: the group is flagged by every
		// future batch check and rejected by every incremental retry —
		// permanently unacceptable.
		if s.doomed != nil && len(within) == 1 {
			s.doomed[added[within[0]].Key()] = true
		}
	}
	return bad
}

// finish records the synthesized protocol and its measurements.
func (s *synthesizer) finish(res *Result, pss []Group) {
	res.Protocol = pss
	initial := make(map[protocol.Key]bool)
	for _, g := range dedupeGroups(s.e.ActionGroups()) {
		initial[g.Key()] = true
	}
	for _, g := range pss {
		if !initial[g.Key()] {
			res.Added = append(res.Added, g)
		}
	}
	res.ProgramSize = s.e.ProgramSize(pss)
}

// NormalizeSchedule is the schedule rule: nil selects DefaultSchedule(k),
// and any other schedule must be a permutation of 0..k-1. A valid schedule
// is returned as is.
func NormalizeSchedule(sched []int, k int) ([]int, error) {
	if sched == nil {
		return DefaultSchedule(k), nil
	}
	if len(sched) != k {
		return nil, fmt.Errorf("schedule has %d entries, want %d", len(sched), k)
	}
	seen := make([]bool, k)
	for _, p := range sched {
		if p < 0 || p >= k || seen[p] {
			return nil, fmt.Errorf("schedule %v is not a permutation of 0..%d", sched, k-1)
		}
		seen[p] = true
	}
	return sched, nil
}

func dedupeGroups(gs []Group) []Group {
	seen := make(map[protocol.Key]bool, len(gs))
	var out []Group
	for _, g := range gs {
		if k := g.Key(); !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	return out
}

// batchFingerprint identifies a candidate batch by its group keys in batch
// order (the order is itself deterministic: candsByProc order, filtered).
func (s *synthesizer) batchFingerprint(added []Group) string {
	var b strings.Builder
	for _, g := range added {
		b.WriteString(string(g.Key()))
		b.WriteByte('\n')
	}
	return b.String()
}
