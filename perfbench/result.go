package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// repResult is what one repetition (one child process) reports.
type repResult struct {
	// Setup is the time to build the study (for serve: daemon start to the
	// first cold compare job's completion) before the timed part.
	Setup float64 `json:"setup_s"`
	// Run is the timed part.
	Run float64 `json:"run_s"`
	// Parts splits Run into named segments (experiments, grid passes, jobs)
	// that every repetition of the workload runs in the same order.
	Parts map[string]float64 `json:"parts_s"`
	// Ops are the latencies of the workload's repeated operation (see
	// README.md), pooled by the parent into op_p50_s and op_tail_s.
	Ops []float64 `json:"ops_s"`
	// Attempted counts operations: rendered experiments, grids or jobs.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digests maps each rendered result to the SHA-256 of its text.
	Digests map[string]string `json:"digests"`
	// GCPause is the process's total stop-the-world GC pause.
	GCPause float64 `json:"gc_pause_s"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Info carries diagnostics printed beside the result, never gated.
	Info map[string]float64 `json:"info,omitempty"`
}

func newRep() *repResult {
	return &repResult{Digests: map[string]string{}, Parts: map[string]float64{}, Info: map[string]float64{}}
}

// fail records one failed operation.
func (r *repResult) fail(op string, err error) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", op, err))
}

// layer sets one per-layer metric, creating the map on first use.
func (r *repResult) layer(name string, v float64) {
	if r.Layers == nil {
		r.Layers = map[string]float64{}
	}
	r.Layers[name] = v
}

// finish stamps the process-wide diagnostics.
func (r *repResult) finish() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.GCPause = float64(ms.PauseTotalNs) / 1e9
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// median returns the median of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. It returns 0 for no samples, which only a run whose
// every operation failed produces (its result is then marked incorrect).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest whole percentile of xs that has at least ten
// samples beyond it, and which percentile that was. With fewer than 20
// samples no percentile from the median up qualifies, and the maximum
// (percentile 100) is returned.
func tail(xs []float64) (value float64, pct int) {
	n := len(xs)
	if n < 20 {
		return quantile(xs, 1), 100
	}
	pct = int(math.Floor(100 * float64(n-10) / float64(n)))
	return quantile(xs, float64(pct)/100), pct
}

// checkDigests compares one repetition's digests with the expected set and
// returns one failure per mismatched or missing result and per unexpected
// one. expected may be nil, in which case nothing is checked.
func checkDigests(expected, got map[string]string) []string {
	if expected == nil {
		return nil
	}
	var bad []string
	for name, want := range expected {
		have, ok := got[name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: no result", name))
		case have != want:
			bad = append(bad, fmt.Sprintf("%s: digest %.12s, want %.12s", name, have, want))
		}
	}
	for name := range got {
		if _, ok := expected[name]; !ok {
			bad = append(bad, fmt.Sprintf("%s: result not in the expected set", name))
		}
	}
	sort.Strings(bad)
	return bad
}
