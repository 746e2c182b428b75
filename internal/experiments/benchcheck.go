package experiments

import "fmt"

// Bench regression guard: compare a freshly measured benchmark document
// against the committed baseline. Wall-clock on a shared machine is noisy,
// so the guard is deliberately coarse — it flags only order-of-magnitude
// problems (a leg slower than tolerance × its committed time) and hard
// correctness regressions (a leg that stopped verifying, or legs that no
// longer synthesize the same protocol). Allocation totals are steadier
// than wall-clock but still jitter with GC timing, so allocation growth
// comes back as non-gating warnings rather than failures.
// scripts/bench.sh -check wires it up; CI runs it non-gating.

// Tolerances is the slowdown guard configuration: the default allowed
// slowdown factor, with per-case overrides for legs whose noise profile
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

// allocWarnFactor is the non-gating allocation-growth threshold: a leg
// allocating more than this factor of its committed bytes or objects
// earns a warning. Baselines without allocation data (zero) are skipped.
const allocWarnFactor = 2

// CheckExplicit returns one message per regression of fresh against base,
// plus non-gating warnings (allocation growth beyond allocWarnFactor).
func CheckExplicit(fresh, base ExplicitBench, tol Tolerances) (bad, warn []string) {
	byName := make(map[string]ExplicitBenchRow, len(base.Cases))
	for _, c := range base.Cases {
		byName[c.Name] = c
	}
	for _, c := range fresh.Cases {
		b, ok := byName[c.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: case missing from the committed baseline", c.Name))
			continue
		}
		if !c.ProtocolsMatch {
			bad = append(bad, fmt.Sprintf("%s: legs no longer synthesize the same protocol", c.Name))
		}
		factor := tol.forCase(c.Name)
		bad = append(bad, checkLeg(c.Name+"/kernel", c.Kernel.TotalMs, c.Kernel.Verified, c.Kernel.Err,
			b.Kernel.TotalMs, factor)...)
		warn = append(warn, warnAllocs(c.Name+"/kernel",
			c.Kernel.AllocBytes, c.Kernel.AllocObjects, b.Kernel.AllocBytes, b.Kernel.AllocObjects)...)
	}
	return bad, warn
}

// CheckSymbolic is CheckExplicit for the symbolic document.
func CheckSymbolic(fresh, base SymbolicBench, tol Tolerances) (bad, warn []string) {
	byName := make(map[string]SymbolicBenchRow, len(base.Cases))
	for _, c := range base.Cases {
		byName[c.Name] = c
	}
	for _, c := range fresh.Cases {
		b, ok := byName[c.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: case missing from the committed baseline", c.Name))
			continue
		}
		if !c.ProtocolsMatch {
			bad = append(bad, fmt.Sprintf("%s: legs no longer synthesize the same protocol", c.Name))
		}
		factor := tol.forCase(c.Name)
		bad = append(bad, checkLeg(c.Name+"/tuned", c.Tuned.TotalMs, c.Tuned.Verified, c.Tuned.Err,
			b.Tuned.TotalMs, factor)...)
		warn = append(warn, warnAllocs(c.Name+"/tuned",
			c.Tuned.AllocBytes, c.Tuned.AllocObjects, b.Tuned.AllocBytes, b.Tuned.AllocObjects)...)
	}
	return bad, warn
}

func checkLeg(name string, gotMs float64, verified bool, errMsg string, baseMs, tolerance float64) []string {
	var bad []string
	if errMsg != "" {
		bad = append(bad, fmt.Sprintf("%s: failed: %s", name, errMsg))
		return bad
	}
	if !verified {
		bad = append(bad, fmt.Sprintf("%s: synthesized protocol no longer verifies", name))
	}
	if baseMs > 0 && gotMs > baseMs*tolerance {
		bad = append(bad, fmt.Sprintf("%s: %.1fms vs committed %.1fms (over the %.1fx tolerance)",
			name, gotMs, baseMs, tolerance))
	}
	return bad
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
