package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

func TestServiceMixIsSeededWithFixedProportions(t *testing.T) {
	a, b := genServiceMix(7), genServiceMix(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must give the same request list")
	}
	if reflect.DeepEqual(genServiceMix(7), genServiceMix(8)) {
		t.Fatal("different seeds gave the same request list")
	}
	for seed := int64(1); seed <= 20; seed++ {
		reqs := genServiceMix(seed)
		if len(reqs) < 300 {
			t.Fatalf("seed %d: %d requests, want at least 300", seed, len(reqs))
		}
		want := map[string]int{"sync": mixSync, "async": mixAsync, "batch": mixBatch}
		if got := classCounts(reqs); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: classes %v, want %v", seed, got, want)
		}
		seen := map[int]bool{}
		perTenant := map[int]int{}
		items := 0
		for _, r := range reqs {
			n := 1
			if r.class == "batch" {
				n = batchSize
			}
			if len(r.items) != n {
				t.Fatalf("seed %d: %s request with %d items", seed, r.class, len(r.items))
			}
			for _, it := range r.items {
				seen[it] = true
			}
			items += n
			perTenant[r.tenant] += n
		}
		if len(seen) != len(serviceCatalog) {
			t.Errorf("seed %d: %d of %d catalog specs requested; every one must be", seed, len(seen), len(serviceCatalog))
		}
		// The cache-fill phase is the same for every seed: each spec once,
		// most expensive first, async for the fillAsync specs.
		for i := range serviceCatalog {
			r := reqs[i]
			spec := len(serviceCatalog) - 1 - i
			want := "sync"
			if fillAsync(spec) {
				want = "async"
			}
			if len(r.items) != 1 || r.items[0] != spec || r.class != want {
				t.Fatalf("seed %d: fill request %d is %s %v, want %s [%d]", seed, i, r.class, r.items, want, spec)
			}
		}
		// Most items repeat a spec: cache hits, not cold solves.
		if cold := len(serviceCatalog); cold*5 > items {
			t.Errorf("seed %d: %d cold of %d items; repeats must dominate", seed, cold, items)
		}
		// Admission at the server defaults allows a burst of 100 per
		// tenant; a fresh server per round must never reject.
		for tenant, n := range perTenant {
			if n > 100 {
				t.Errorf("seed %d: tenant %d is charged %d tokens in one round, burst is 100", seed, tenant, n)
			}
		}
	}
}

func TestDistJobsAreSeededWithFixedClasses(t *testing.T) {
	winners := lateWinners(expectedDigests)
	if len(winners) == 0 {
		t.Fatal("digests.json records no winner for the late-winner spec")
	}
	a, b := genDistJobs(3, winners), genDistJobs(3, winners)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must give the same job list")
	}
	if reflect.DeepEqual(a, genDistJobs(4, winners)) {
		t.Fatal("different seeds gave the same job list")
	}
	for seed := int64(1); seed <= 20; seed++ {
		jobs := genDistJobs(seed, winners)
		names := map[string]bool{}
		prune := 0
		for _, j := range jobs {
			names[j.name] = true
			if j.prune {
				prune++
			}
			if j.job.Request.Prune != j.prune {
				t.Fatalf("seed %d: %s request prune flag %v", seed, j.name, j.job.Request.Prune)
			}
			if j.name != "late-winner/prune" && j.name != "late-winner/noprune" {
				continue
			}
			list := j.job.Source.List
			first := -1
			for i, s := range list {
				if winners[scheduleKey(lateSpec, s)] && first < 0 {
					first = i
				}
				for _, prev := range list[:i] {
					if equalInts(prev, s) {
						t.Errorf("seed %d: schedule %v listed twice", seed, s)
					}
				}
			}
			if want := 24 - len(winners); first != want || len(list) != want+1+lateTrailing {
				t.Errorf("seed %d: first winner at %d of %d; want every failing schedule (%d) first",
					seed, first, len(list), want)
			}
		}
		if len(jobs) != 6 || len(names) != 6 || prune != 3 {
			t.Errorf("seed %d: %d jobs, %d distinct, %d pruned; want 6, 6, 3", seed, len(jobs), len(names), prune)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metric
// tables the harness reports in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v\nharness reports %v", b.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer differs from the harness:\n%v\n%v", b.PerLayer, perLayerMetrics)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(b.Workloads), len(ws))
	}
	for _, w := range b.Workloads {
		if ws[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the harness", w.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: layerOp, Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: layerWorker, Start: 1, End: 5},
		{ID: 3, Parent: 1, Layer: layerWorker, Start: 4, End: 8}, // overlaps span 2
		{ID: 4, Parent: 3, Layer: layerEncode, Start: 6, End: 7},
	}
	got := selfTimes(spans)
	want := map[string]float64{layerOp: 3, layerWorker: 7, layerEncode: 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func classCounts(reqs []mixRequest) map[string]int {
	out := map[string]int{}
	for _, r := range reqs {
		out[r.class]++
	}
	return out
}
