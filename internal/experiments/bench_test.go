package experiments

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchDoc is a two-case ledger with one row per case, every row verified.
func benchDoc() Bench {
	row := func(name string, ms float64, digest string) BenchRow {
		return BenchRow{Name: name, Reps: benchReps, BenchLeg: BenchLeg{
			TotalMs: ms, AllocBytes: 1000, AllocObjects: 10, Verified: true, Digest: digest,
		}}
	}
	return Bench{Engine: "explicit", Cases: []BenchRow{row("a", 10, "aaaa"), row("b", 100, "bbbb")}}
}

// expectOne asserts that msgs holds exactly one message, naming want.
func expectOne(t *testing.T, what string, msgs []string, want string) {
	t.Helper()
	if len(msgs) != 1 || !strings.Contains(msgs[0], want) {
		t.Fatalf("%s: got %q, want one message containing %q", what, msgs, want)
	}
}

func TestCheckFlagsEachRegression(t *testing.T) {
	tol := Tolerances{Default: 3}
	if bad, warn := Check(benchDoc(), benchDoc(), tol, true); len(bad)+len(warn) != 0 {
		t.Fatalf("identical ledgers: bad %q, warn %q", bad, warn)
	}

	fresh := benchDoc()
	fresh.Cases[0].Digest = "cccc"
	bad, _ := Check(fresh, benchDoc(), tol, true)
	expectOne(t, "digest drift", bad, "protocol digest cccc, committed aaaa")

	fresh = benchDoc()
	fresh.Cases[1].Verified = false
	bad, _ = Check(fresh, benchDoc(), tol, true)
	expectOne(t, "unverified", bad, "b: synthesized protocol no longer verifies")

	fresh = benchDoc()
	fresh.Cases[0].Err = "deadlocks remain"
	bad, _ = Check(fresh, benchDoc(), tol, true)
	expectOne(t, "failing rep", bad, "a: failed: deadlocks remain")

	fresh = benchDoc()
	fresh.Cases[1].TotalMs = 301
	bad, _ = Check(fresh, benchDoc(), tol, true)
	expectOne(t, "over tolerance", bad, "b: 301.0ms vs committed 100.0ms")
	perCase := Tolerances{Default: 3, PerCase: map[string]float64{"b": 4}}
	if bad, _ := Check(fresh, benchDoc(), perCase, true); len(bad) != 0 {
		t.Fatalf("case tolerance 4 still flags 3.01x: %q", bad)
	}
	fresh.Cases[1].TotalMs = 401
	bad, _ = Check(fresh, benchDoc(), perCase, true)
	expectOne(t, "over case tolerance", bad, "over the 4.0x tolerance")

	fresh = benchDoc()
	fresh.Cases = fresh.Cases[:1]
	bad, _ = Check(fresh, benchDoc(), tol, true)
	expectOne(t, "missing case", bad, "b: committed case missing from the run")
	if bad, _ := Check(fresh, benchDoc(), tol, false); len(bad) != 0 {
		t.Fatalf("a filtered run flags the cases it skipped: %q", bad)
	}

	fresh = benchDoc()
	fresh.Cases[1].Name = "c"
	bad, _ = Check(fresh, benchDoc(), tol, true)
	if len(bad) != 2 || !strings.Contains(bad[0], "c: case missing from the committed baseline") ||
		!strings.Contains(bad[1], "b: committed case missing from the run") {
		t.Fatalf("renamed case: got %q", bad)
	}

	fresh = benchDoc()
	fresh.Engine = "symbolic"
	bad, _ = Check(fresh, benchDoc(), tol, true)
	expectOne(t, "engine mismatch", bad, `baseline is for engine "explicit"`)

	fresh = benchDoc()
	fresh.Cases[0].AllocBytes = 2001
	fresh.Cases[0].AllocObjects = 21
	bad, warn := Check(fresh, benchDoc(), tol, true)
	if len(bad) != 0 || len(warn) != 2 {
		t.Fatalf("allocation growth: bad %q, warn %q; want no failure and two warnings", bad, warn)
	}
}

func TestFastestRepFailsOnAnyBadRep(t *testing.T) {
	ok := func(ms float64) BenchLeg { return BenchLeg{TotalMs: ms, Verified: true, Digest: "d"} }

	leg, spread := fastestRep([]BenchLeg{ok(30), ok(10), ok(20)})
	if leg.TotalMs != 10 || spread != 20 || leg.Err != "" || !leg.Verified {
		t.Fatalf("got %+v spread %v, want the 10ms rep with spread 20", leg, spread)
	}

	// A later rep that errors fails the row even though an earlier one
	// was faster.
	failing := BenchLeg{TotalMs: 50, Err: "out of budget"}
	if leg, _ := fastestRep([]BenchLeg{ok(10), ok(20), failing}); leg.Err != "out of budget" {
		t.Fatalf("failing third rep: got %+v", leg)
	}

	drift := ok(40)
	drift.Digest = "e"
	if leg, _ := fastestRep([]BenchLeg{ok(10), drift, ok(20)}); !strings.Contains(leg.Err, "different protocols") {
		t.Fatalf("digest drift between reps: got %+v", leg)
	}

	unverified := ok(40)
	unverified.Verified = false
	if leg, _ := fastestRep([]BenchLeg{ok(10), unverified}); leg.Verified {
		t.Fatal("a row with an unverified rep reads verified")
	}
}

// TestCommittedLedgersAgree reads the committed ledgers: every row is
// verified and carries a digest, and a case both engines run has one
// digest, since the engines synthesize the same protocol.
func TestCommittedLedgersAgree(t *testing.T) {
	digests := make(map[string]string)
	shared := 0
	for _, engine := range []string{"explicit", "symbolic"} {
		raw, err := os.ReadFile("../../BENCH_" + engine + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var doc Bench
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Engine != engine {
			t.Fatalf("BENCH_%s.json is for engine %q", engine, doc.Engine)
		}
		for _, c := range doc.Cases {
			if c.Err != "" || !c.Verified || c.Digest == "" {
				t.Fatalf("%s/%s: err %q, verified %v, digest %q", engine, c.Name, c.Err, c.Verified, c.Digest)
			}
			if d, ok := digests[c.Name]; ok {
				shared++
				if d != c.Digest {
					t.Fatalf("%s: explicit digest %s, symbolic %s", c.Name, d, c.Digest)
				}
			}
			digests[c.Name] = c.Digest
		}
	}
	if shared == 0 {
		t.Fatal("the ledgers share no case")
	}
}
