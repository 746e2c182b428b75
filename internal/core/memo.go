package core

import "stsyn/internal/protocol"

// SynthMemo is an optional cross-schedule memo for AddConvergence, scoped
// by the caller to one synthesis problem (same spec, engine kind,
// convergence and cycle resolution — internal/prune builds the scope as a
// content address). Implementations must be safe for concurrent use: the
// parallel drivers share one memo across every attempt of a fan-out.
//
// Correctness contract: a memo hit must be observationally identical to
// recomputation. AddConvergence guarantees this by snapshotting only
// schedule-independent results (preprocessing and ranking) and
// prefix-determined results (the accepted groups of the first non-trivial
// pass-1 cell, which depend only on the schedule prefix processed so far),
// and by replaying snapshots through the same deterministic accept path the
// original run took. Nothing is stored after a context cancellation, so a
// memo never captures a partially-executed state.
type SynthMemo interface {
	// LoadRanks/StoreRanks memoize the schedule-independent prefix of a
	// run: cycle preprocessing and the rank BFS.
	LoadRanks() (RankSnapshot, bool)
	StoreRanks(RankSnapshot)
	// LoadPrefix returns the longest stored pass-1 snapshot whose schedule
	// prefix matches a prefix of sched, with the matched length.
	LoadPrefix(sched []int) (int, PrefixSnapshot, bool)
	// StorePrefix records the pass-1 state after processing the given
	// schedule prefix.
	StorePrefix(prefix []int, snap PrefixSnapshot)
}

// RankSnapshot captures the schedule-independent preprocessing of a run:
// the keys of the initial groups removed by cycle preprocessing, and the
// rank sets as Engine.ExportSet words. Stored only after the rank-∞ check
// passed, so importing a snapshot may skip that check.
type RankSnapshot struct {
	RemovedKeys []protocol.Key
	Ranks       [][]uint64
}

// PrefixSnapshot captures the pass-1 state after a schedule prefix: which
// candidate groups have been accepted (by key) and whether that already
// resolved every deadlock. RankIndex pins the rank cell the snapshot
// belongs to — it is schedule-independent (the first rank with deadlocks),
// but is verified on load so a stale entry can never replay into the wrong
// cell.
type PrefixSnapshot struct {
	Pass      int
	RankIndex int
	AddedKeys []protocol.Key
	Done      bool
}
