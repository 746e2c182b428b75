package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"stsyn/internal/core"
	"stsyn/internal/protocols"
	"stsyn/internal/symbolic"
	"stsyn/internal/verify"
)

// The paper (Section VII): "We have conducted similar investigation … on
// the effect of the size of variable domains and the recovery schedule on
// the time/space complexity of synthesis, which we omit due to space
// constraint." These two sweeps reproduce those omitted experiments.

// DomainRow measures the token ring at fixed k while the variable domain
// grows.
type DomainRow struct {
	K, Dom      int
	TotalTime   time.Duration
	SCCTime     time.Duration
	ProgramSize int
	SCCCount    int
	Pass        int
	Resolution  string
	Verified    bool
	Err         string
}

// DomainEffect sweeps the token-ring domain size at fixed k. Both cycle-
// resolution strategies are tried (the paper's batch strategy starts losing
// instances as the domain grows — see EXPERIMENTS.md).
func DomainEffect(k int, doms []int) []DomainRow {
	var rows []DomainRow
	for _, dom := range doms {
		row := DomainRow{K: k, Dom: dom}
		for _, res := range []core.CycleResolution{core.BatchResolution, core.IncrementalResolution} {
			e, err := symbolic.New(protocols.TokenRing(k, dom))
			if err != nil {
				row.Err = err.Error()
				break
			}
			r, err := core.AddConvergence(e, core.Options{CycleResolution: res})
			if err != nil {
				row.Err = err.Error()
				continue
			}
			row.Err = ""
			row.TotalTime = r.TotalTime
			row.SCCTime = r.SCCTime
			row.ProgramSize = r.ProgramSize
			row.SCCCount = r.SCCCount
			row.Pass = r.PassCompleted
			if res == core.BatchResolution {
				row.Resolution = "batch"
			} else {
				row.Resolution = "incremental"
			}
			row.Verified = verify.StronglyStabilizing(e, r.Protocol).OK
			break // first succeeding strategy wins
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatDomainRows renders the domain sweep.
func FormatDomainRows(rows []DomainRow) string {
	out := fmt.Sprintf("Domain-size effect (token ring, k=%d)\n", rows[0].K)
	out += fmt.Sprintf("%4s %12s %12s %10s %6s %5s %12s %3s\n",
		"dom", "total", "scc", "prog(nodes)", "#SCCs", "pass", "resolution", "ok")
	for _, r := range rows {
		if r.Err != "" {
			out += fmt.Sprintf("%4d  FAILED: %s\n", r.Dom, r.Err)
			continue
		}
		out += fmt.Sprintf("%4d %12s %12s %10d %6d %5d %12s %3v\n",
			r.Dom, r.TotalTime.Round(time.Millisecond), r.SCCTime.Round(time.Millisecond),
			r.ProgramSize, r.SCCCount, r.Pass, r.Resolution, r.Verified)
	}
	return out
}

// WeakStrongRow compares weak- and strong-convergence synthesis of the
// same instance (Theorem IV.1's sound-and-complete weak design vs the
// heuristic three-pass strong design).
type WeakStrongRow struct {
	Protocol     string
	WeakTime     time.Duration
	StrongTime   time.Duration
	WeakGroups   int // δ of the weakly stabilizing version (pim)
	StrongGroups int
	WeakOK       bool
	StrongOK     bool
}

// WeakVsStrong runs both synthesis modes on an instance and verifies each
// result against the corresponding property.
func WeakVsStrong(name string, newEngine core.EngineFactory) (WeakStrongRow, error) {
	row := WeakStrongRow{Protocol: name}

	we, err := newEngine()
	if err != nil {
		return row, err
	}
	wres, err := core.AddConvergence(we, core.Options{Convergence: core.Weak})
	if err != nil {
		return row, err
	}
	row.WeakTime = wres.TotalTime
	row.WeakGroups = len(wres.Protocol)
	row.WeakOK = verify.WeaklyStabilizing(we, wres.Protocol).OK

	se, err := newEngine()
	if err != nil {
		return row, err
	}
	sres, err := core.AddConvergence(se, core.Options{})
	if err != nil {
		return row, err
	}
	row.StrongTime = sres.TotalTime
	row.StrongGroups = len(sres.Protocol)
	row.StrongOK = verify.StronglyStabilizing(se, sres.Protocol).OK
	return row, nil
}

// ScheduleRow summarizes a full schedule sweep of one instance.
type ScheduleRow struct {
	Protocol         string
	Schedules        int
	Successes        int
	DistinctVersions int
	MinTime, MaxTime time.Duration
}

// ScheduleEffect tries every recovery schedule on a small instance and
// reports how many succeed, how many distinct stabilizing versions emerge
// (all verified), and the time spread. newEngine creates a fresh engine per
// attempt.
func ScheduleEffect(name string, newEngine core.EngineFactory, schedules [][]int) (ScheduleRow, error) {
	row := ScheduleRow{Protocol: name, Schedules: len(schedules)}
	distinct := make(map[string]bool)
	for _, sched := range schedules {
		e, err := newEngine()
		if err != nil {
			return row, err
		}
		res, err := core.AddConvergence(e, core.Options{Schedule: sched})
		if err != nil {
			continue
		}
		if !verify.StronglyStabilizing(e, res.Protocol).OK {
			return row, fmt.Errorf("schedule %v produced an unsound protocol", sched)
		}
		row.Successes++
		if row.MinTime == 0 || res.TotalTime < row.MinTime {
			row.MinTime = res.TotalTime
		}
		if res.TotalTime > row.MaxTime {
			row.MaxTime = res.TotalTime
		}
		keys := make([]string, 0, len(res.Protocol))
		for _, g := range res.Protocol {
			keys = append(keys, string(g.Key()))
		}
		sort.Strings(keys)
		distinct[strings.Join(keys, "|")] = true
	}
	row.DistinctVersions = len(distinct)
	return row, nil
}

// FormatScheduleRows renders schedule-effect results.
func FormatScheduleRows(rows []ScheduleRow) string {
	out := "Recovery-schedule effect\n"
	out += fmt.Sprintf("%-16s %10s %10s %9s %12s %12s\n",
		"protocol", "schedules", "successes", "versions", "min time", "max time")
	for _, r := range rows {
		out += fmt.Sprintf("%-16s %10d %10d %9d %12s %12s\n",
			r.Protocol, r.Schedules, r.Successes, r.DistinctVersions,
			r.MinTime.Round(time.Millisecond), r.MaxTime.Round(time.Millisecond))
	}
	return out
}
