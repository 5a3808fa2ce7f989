package expt

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"oslayout"
	"oslayout/internal/cache"
	"oslayout/internal/obs"
)

// TestParEachLowestError injects failures at two indices and asserts parEachN
// returns the error of the lowest failing index — the sequential answer —
// regardless of worker scheduling, and that every index below that failure
// was still executed.
func TestParEachLowestError(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		old := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	errLo := errors.New("low-index failure")
	errHi := errors.New("high-index failure")
	const n = 64
	for round := 0; round < 25; round++ {
		var ran [n]int32
		err := parEachN(runtime.GOMAXPROCS(0), n, func(i int) error {
			atomic.StoreInt32(&ran[i], 1)
			switch i {
			case 11:
				// Delay so the high-index failure is usually recorded first:
				// the result must not depend on completion order.
				time.Sleep(200 * time.Microsecond)
				return errLo
			case 40:
				return errHi
			}
			return nil
		})
		if err != errLo {
			t.Fatalf("round %d: parEachN returned %v, want the lowest failing index's error %v", round, err, errLo)
		}
		for i := 0; i < 11; i++ {
			if atomic.LoadInt32(&ran[i]) != 1 {
				t.Fatalf("round %d: index %d below the failure never ran", round, i)
			}
		}
	}

	// No failure: every index runs exactly once.
	var count int32
	if err := parEachN(runtime.GOMAXPROCS(0), n, func(i int) error {
		atomic.AddInt32(&count, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("ran %d tasks, want %d", count, n)
	}
}

// TestBatchedSweepParallelDeterminism sweeps a multi-configuration grid
// through the batched engine under parEachN with GOMAXPROCS > 1, twice, and
// asserts the two passes are identical — the determinism contract the sweep
// experiments rely on when they fan trace-sharing batches across cores.
// Running the package under -race additionally checks the concurrent
// replays share the trace, layout and program read-only.
func TestBatchedSweepParallelDeterminism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		old := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	e, err := NewEnv(Options{OSRefs: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	grid := []cache.Config{
		{Size: 4 << 10, Line: 16, Assoc: 1},
		{Size: 4 << 10, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 32, Assoc: 1},
		{Size: 8 << 10, Line: 32, Assoc: 2},
		{Size: 8 << 10, Line: 64, Assoc: 1},
		{Size: 16 << 10, Line: 32, Assoc: 4, Policy: cache.RandomReplacement},
	}
	base := e.Base()
	nw := len(e.St.Data)
	// Two tasks per workload so the same trace and layout are replayed by
	// concurrent workers, as in the real sweeps.
	const reps = 2
	sweep := func() [][]cache.Stats {
		out := make([][]cache.Stats, nw*reps)
		err := parEachN(runtime.GOMAXPROCS(0), nw*reps, func(j int) error {
			ress, err := e.EvalMany(j%nw, base, nil, grid, oslayout.ReplayOptions{})
			if err != nil {
				return err
			}
			stats := make([]cache.Stats, len(ress))
			for k, r := range ress {
				stats[k] = r.Stats
			}
			out[j] = stats
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := sweep(), sweep()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two parallel batched sweeps over the same grid disagree")
	}
	for j := 0; j < nw; j++ {
		if !reflect.DeepEqual(a[j], a[j+nw]) {
			t.Fatalf("workload %d: concurrent replays of the same batch disagree", j)
		}
	}
	for k := range grid {
		if a[0][k].TotalRefs() == 0 || a[0][k].TotalMisses() == 0 {
			t.Fatalf("config %v: degenerate sweep result %+v", grid[k], a[0][k])
		}
	}
}

// TestEvalCellsReplaysDistinctCellsOnce checks the batch primitive's
// contract: equal cells share one *Result, only distinct cells replay (the
// recorder's replay.events counter sums the events of exactly those), every
// result matches a direct Eval, and a batch with failing cells returns the
// lowest failing cell's error, as a sequential loop would.
func TestEvalCellsReplaysDistinctCellsOnce(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		old := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	rec := obs.NewRecorder()
	e, err := NewEnv(Options{OSRefs: 60_000, Par: 4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := e.Layout("opts", DefaultCache.Size)
	if err != nil {
		t.Fatal(err)
	}
	small := cache.Config{Size: 4 << 10, Line: 32, Assoc: 1}
	cells := []cell{
		{i: 0, osL: e.Base(), cfg: DefaultCache},
		{i: 1, osL: e.Base(), cfg: DefaultCache},
		{i: 0, osL: opts, cfg: DefaultCache},
		{i: 0, osL: e.Base(), cfg: DefaultCache}, // = cell 0
		{i: 0, osL: e.Base(), cfg: small},
		{i: 1, osL: e.Base(), cfg: DefaultCache}, // = cell 1
		{i: 0, osL: opts, cfg: DefaultCache},     // = cell 2
	}
	dupOf := map[int]int{3: 0, 5: 1, 6: 2}
	distinct := []int{0, 1, 2, 4}

	before := rec.Counters()["replay.events"]
	res, err := e.evalCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	var wantEvents uint64
	for _, k := range distinct {
		wantEvents += uint64(e.St.Data[cells[k].i].Trace.NumEvents())
	}
	if got := rec.Counters()["replay.events"] - before; got != wantEvents {
		t.Fatalf("batch replayed %d events, want %d (each of the %d distinct cells once)", got, wantEvents, len(distinct))
	}
	for k, j := range dupOf {
		if res[k] != res[j] {
			t.Errorf("duplicate cell %d got its own result, want cell %d's pointer", k, j)
		}
	}
	for _, k := range distinct {
		c := cells[k]
		want, err := e.Eval(c.i, c.osL, c.appL, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[k].Stats, want.Stats) {
			t.Errorf("cell %d: batch stats %+v, direct Eval %+v", k, res[k].Stats, want.Stats)
		}
	}

	// Two distinct invalid organisations: the batch must report the lower
	// one's error whichever replay fails first.
	badLine := cache.Config{Size: 8 << 10, Line: 24, Assoc: 1}
	badAssoc := cache.Config{Size: 8 << 10, Line: 32, Assoc: 3}
	failing := []cell{
		{i: 0, osL: e.Base(), cfg: DefaultCache},
		{i: 1, osL: opts, cfg: DefaultCache},
		{i: 1, osL: e.Base(), cfg: badLine},
		{i: 0, osL: e.Base(), cfg: badAssoc},
		{i: 1, osL: e.Base(), cfg: badLine},
	}
	_, want := e.Eval(1, e.Base(), nil, badLine)
	_, other := e.Eval(0, e.Base(), nil, badAssoc)
	if want == nil || other == nil || want.Error() == other.Error() {
		t.Fatalf("injected failures not distinct: %v / %v", want, other)
	}
	for round := 0; round < 10; round++ {
		if _, err := e.evalCells(failing); err == nil || err.Error() != want.Error() {
			t.Fatalf("round %d: evalCells returned %v, want the lowest failing cell's error %v", round, err, want)
		}
	}
}

// TestExperimentsParallelMatchSequential renders every registered
// experiment on two fresh environments over the same small study, one
// fully sequential (Par 1) and one fanned out (Par 4), and requires
// byte-identical text: concurrent layout builds and deduplicated parallel
// replay batches must not change a single digit. Under -race it also checks
// the concurrent builds and replays share the study read-only.
func TestExperimentsParallelMatchSequential(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		old := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	render := func(par int) map[string]string {
		e, err := NewEnv(Options{OSRefs: 150_000, Par: par})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, name := range Names() {
			r, err := Run(e, name)
			if err != nil {
				t.Fatalf("par %d: %s: %v", par, name, err)
			}
			out[name] = r.Render()
		}
		return out
	}
	seq, par := render(1), render(4)
	for _, name := range Names() {
		if seq[name] != par[name] {
			t.Errorf("%s: Par 4 rendering differs from Par 1:\n--- par 1\n%s\n--- par 4\n%s", name, seq[name], par[name])
		}
	}
}
