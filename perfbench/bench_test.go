package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"oslayout/internal/expt"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p := tail(xs)
	if p != 75 {
		t.Fatalf("40 samples: percentile %d, want 75", p)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < 10 {
		t.Fatalf("tail %v has %d samples beyond it, want at least 10", v, beyond)
	}
	if v, p := tail(xs[:12]); p != 100 || v != 12 {
		t.Fatalf("12 samples: tail %v at percentile %d, want the maximum 12 at 100", v, p)
	}
}

// A planted wrong digest must count as a failed operation, as must a
// missing or an unexpected result.
func TestWrongDigestIsAFailure(t *testing.T) {
	got := map[string]string{"table1": "aaaa", "fig15": "bbbb"}
	if bad := checkDigests(map[string]string{"table1": "aaaa", "fig15": "bbbb"}, got); len(bad) != 0 {
		t.Fatalf("matching digests reported %v", bad)
	}
	planted := map[string]string{"table1": "aaaa", "fig15": "cccc"}
	if bad := checkDigests(planted, got); len(bad) != 1 || !strings.HasPrefix(bad[0], "fig15:") {
		t.Fatalf("planted wrong digest: got %v, want one fig15 failure", bad)
	}
	if bad := checkDigests(map[string]string{"table1": "aaaa"}, got); len(bad) != 1 {
		t.Fatalf("unexpected result: got %v, want one failure", bad)
	}
	if bad := checkDigests(map[string]string{"table1": "aaaa", "fig15": "bbbb", "fig16": "dddd"}, got); len(bad) != 1 {
		t.Fatalf("missing result: got %v, want one failure", bad)
	}
}

// Warm grid repeats must recompute: a repetition that hands back a memoized
// grid, or a fresh grid built without replaying, must be reported failed.
func TestMemoizedRepetitionIsAFailure(t *testing.T) {
	env, err := expt.NewEnv(expt.Options{OSRefs: 200_000, Par: 2})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []string{"base", "opts"}
	cold, digest, _, err := compareGrid(env, strategies, 1)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := env.StreamCacheStats()
	check := func(run func() (*expt.Compare, string, error)) *repResult {
		r := newRep()
		w := repeatCheck{perGrid: hits + misses, cold: cold, digest: digest, stats: env.StreamCacheStats, run: run}
		w.repeat(2, r)
		return r
	}

	honest := check(func() (*expt.Compare, string, error) {
		c, d, _, err := compareGrid(env, strategies, 1)
		return c, d, err
	})
	if honest.Failed != 0 || len(honest.Ops) != 2 {
		t.Fatalf("recomputed repeats: %d failed (%v), %d timed; want 0 and 2", honest.Failed, honest.Failures, len(honest.Ops))
	}

	memoized := check(func() (*expt.Compare, string, error) { return cold, digest, nil })
	if memoized.Failed != 2 || len(memoized.Ops) != 0 {
		t.Fatalf("memoized repeats: %d failed, %d timed; want 2 and 0", memoized.Failed, len(memoized.Ops))
	}

	copied := check(func() (*expt.Compare, string, error) {
		c := *cold
		return &c, digest, nil
	})
	if copied.Failed != 2 || !strings.Contains(copied.Failures[0], "not replayed") {
		t.Fatalf("copied grid without replay: %d failed (%v); want 2 not-replayed failures", copied.Failed, copied.Failures)
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads and
// metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}

	runs := []*childRun{
		{res: &repResult{Setup: 1, Run: 2, Ops: []float64{1, 2}, Layers: map[string]float64{}}},
		{res: &repResult{Setup: 1, Run: 3, Ops: []float64{1, 2}, Layers: map[string]float64{}}},
	}
	sameMetrics(t, "end_to_end", spec.EndToEnd, endToEndMetrics(runs, map[string]any{}))
	sameMetrics(t, "per_layer", spec.PerLayer, layerMetrics(runs))
}

func sameMetrics(t *testing.T, what string, declared []struct{ Name, Unit string }, reported map[string]metric) {
	t.Helper()
	seen := map[string]bool{}
	for _, d := range declared {
		m, ok := reported[d.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is declared but not reported", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s metric %s: declared unit %q, reported %q", what, d.Name, d.Unit, m.Unit)
		}
		seen[d.Name] = true
	}
	for name := range reported {
		if !seen[name] {
			t.Errorf("%s metric %s is reported but not declared", what, name)
		}
	}
}

// Every workload has digests recorded for the paper's seed and for the
// held-out seed.
func TestDigestsRecorded(t *testing.T) {
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		for _, w := range workloadNames() {
			d, err := recordedDigests(seed, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(d) == 0 {
				t.Errorf("no digests recorded for %s at seed %d", w, seed)
			}
		}
	}
}
