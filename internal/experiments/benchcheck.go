package experiments

import "fmt"

// Bench regression guard: compare a freshly measured ledger against the
// committed one. Wall-clock on a shared machine is noisy, so the guard is
// deliberately coarse — it flags only order-of-magnitude problems (a case
// slower than tolerance × its committed time) and hard correctness
// regressions (a failing or unverified case, a protocol whose digest
// drifted, a committed case the run no longer produces). Allocation
// totals are steadier than wall-clock but still jitter with GC timing, so
// allocation growth comes back as non-gating warnings rather than
// failures. scripts/bench.sh -check wires it up; CI runs it non-gating.

// Tolerances is the slowdown guard configuration: the default allowed
// slowdown factor, with per-case overrides for cases whose noise profile
// differs from the small instances (keyed by case name).
type Tolerances struct {
	Default float64
	PerCase map[string]float64
}

// forCase returns the tolerance for the named case.
func (t Tolerances) forCase(name string) float64 {
	if f, ok := t.PerCase[name]; ok && f > 0 {
		return f
	}
	if t.Default > 0 {
		return t.Default
	}
	return 3
}

// allocWarnFactor is the non-gating allocation-growth threshold: a case
// allocating more than this factor of its committed bytes or objects
// earns a warning. Baselines without allocation data (zero) are skipped.
const allocWarnFactor = 2

// Check returns one message per regression of fresh against base, plus
// non-gating warnings (allocation growth beyond allocWarnFactor). full
// says fresh ran every case of its engine (no case filter, not quick), so
// a committed case it lacks was renamed or dropped.
func Check(fresh, base Bench, tol Tolerances, full bool) (bad, warn []string) {
	if fresh.Engine != base.Engine {
		return []string{fmt.Sprintf("baseline is for engine %q, the run for %q", base.Engine, fresh.Engine)}, nil
	}
	byName := make(map[string]BenchRow, len(base.Cases))
	for _, c := range base.Cases {
		byName[c.Name] = c
	}
	ran := make(map[string]bool, len(fresh.Cases))
	for _, c := range fresh.Cases {
		ran[c.Name] = true
		b, ok := byName[c.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: case missing from the committed baseline", c.Name))
			continue
		}
		if c.Err != "" {
			bad = append(bad, fmt.Sprintf("%s: failed: %s", c.Name, c.Err))
			continue
		}
		if !c.Verified {
			bad = append(bad, fmt.Sprintf("%s: synthesized protocol no longer verifies", c.Name))
		}
		if c.Digest != b.Digest {
			bad = append(bad, fmt.Sprintf("%s: protocol digest %s, committed %s", c.Name, c.Digest, b.Digest))
		}
		if f := tol.forCase(c.Name); b.TotalMs > 0 && c.TotalMs > b.TotalMs*f {
			bad = append(bad, fmt.Sprintf("%s: %.1fms vs committed %.1fms (over the %.1fx tolerance)",
				c.Name, c.TotalMs, b.TotalMs, f))
		}
		warn = append(warn, warnAllocs(c.Name, c.AllocBytes, c.AllocObjects, b.AllocBytes, b.AllocObjects)...)
	}
	if full {
		for _, b := range base.Cases {
			if !ran[b.Name] {
				bad = append(bad, fmt.Sprintf("%s: committed case missing from the run", b.Name))
			}
		}
	}
	return bad, warn
}

func warnAllocs(name string, gotBytes, gotObjs, baseBytes, baseObjs uint64) []string {
	var warn []string
	if baseBytes > 0 && gotBytes > baseBytes*allocWarnFactor {
		warn = append(warn, fmt.Sprintf("%s: %d alloc bytes vs committed %d (over the %dx allocation watermark)",
			name, gotBytes, baseBytes, allocWarnFactor))
	}
	if baseObjs > 0 && gotObjs > baseObjs*allocWarnFactor {
		warn = append(warn, fmt.Sprintf("%s: %d alloc objects vs committed %d (over the %dx allocation watermark)",
			name, gotObjs, baseObjs, allocWarnFactor))
	}
	return warn
}
