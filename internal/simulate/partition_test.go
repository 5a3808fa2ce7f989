package simulate

import (
	"errors"
	"reflect"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/partition"
	"oslayout/internal/simtest"
	"oslayout/internal/trace"
)

// partitionedGrid extends the equivalence grid with way-partitioned
// organisations: the Sep-style static split, a reserved+shared layout and a
// wider asymmetric split.
func partitionedGrid() []cache.Config {
	grid := append([]cache.Config{}, equivalenceGrid...)
	return append(grid,
		cache.Config{Size: 2 << 10, Line: 32, Assoc: 2,
			Part: cache.Partition{OSWays: 1, AppWays: 1}},
		cache.Config{Size: 4 << 10, Line: 32, Assoc: 4,
			Part: cache.Partition{ResvWays: 1}},
		cache.Config{Size: 8 << 10, Line: 32, Assoc: 8,
			Part: cache.Partition{OSWays: 5, AppWays: 2}},
	)
}

// TestPartitionNeutralityAndWorkers drives the equivalence grid plus
// partitioned configs through every engine mode (materialised and streamed,
// workers 1/2/8) and checks all runs are bit-identical to the sequential
// materialised replay, which in turn matches the per-config reference —
// partitioned caches are single drive units, so parallel fan-out must not
// perturb them, and unpartitioned configs sharing the batch with
// partitioned ones must be unaffected by them.
func TestPartitionNeutralityAndWorkers(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 99)
	cfgs := partitionedGrid()
	want, err := RunManyOpt(tr, osL, appL, cfgs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if one, _ := reference(t, tr, osL, appL, cfg, simtest.Options{}); !reflect.DeepEqual(one, want[i]) {
			t.Errorf("%v: batched result differs from the reference", cfg)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		for _, streamed := range []bool{false, true} {
			src := tr
			if streamed {
				src = tr.ChunkView(1 << 10)
			}
			got, err := RunManyOpt(src, osL, appL, cfgs, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Errorf("workers=%d streamed=%v %v: result differs from reference",
						workers, streamed, cfgs[i])
				}
			}
		}
	}
}

// legacySplitReplay reproduces the deleted RunSplit model exactly: two
// independent caches, fetches routed by domain, statistics summed.
func legacySplitReplay(t *testing.T, tr *trace.Trace, osL, appL *layout.Layout, osCfg, appCfg cache.Config) *Result {
	t.Helper()
	osc := cache.MustNew(osCfg)
	apc := cache.MustNew(appCfg)
	res := newResult(tr, osL)
	for _, e := range tr.Events {
		if !e.IsBlock() {
			continue
		}
		d := e.Domain()
		b := e.Block()
		l, p, c := osL, tr.OS, osc
		if d == trace.DomainApp {
			l, p, c = appL, tr.App, apc
		}
		addr := l.Addr[b]
		size := p.Block(b).Size
		c.Stats.Refs[d] += trace.RefsOf(size)
		for line := c.LineOf(addr); line <= c.LineOf(addr+uint64(size)-1); line++ {
			switch c.AccessLine(line, d) {
			case cache.SelfMiss:
				res.BlockMisses[d][b]++
				res.BlockSelf[d][b]++
			case cache.CrossMiss:
				res.BlockMisses[d][b]++
				res.BlockCross[d][b]++
			case cache.ColdMiss:
				res.BlockMisses[d][b]++
			}
		}
	}
	res.Stats = osc.Stats
	res.Stats.Add(&apc.Stats)
	return res
}

// TestPartitionedSplitMatchesLegacyTwoCache pins the Sep migration: folding
// two equal direct-mapped halves into one way-partitioned cache
// (oslayout.CombineSplit's geometry) reproduces the historical two-cache
// replay bit for bit — same per-block miss attribution, same per-domain
// stats.
func TestPartitionedSplitMatchesLegacyTwoCache(t *testing.T) {
	tr, osL, appL := mixedTrace(25_000, 4)
	half := cache.Config{Size: 1 << 10, Line: 32, Assoc: 1}
	legacy := legacySplitReplay(t, tr, osL, appL, half, half)

	combined := cache.Config{Size: 2 << 10, Line: 32, Assoc: 2,
		Part: cache.Partition{OSWays: 1, AppWays: 1}}
	got := runOne(t, tr, osL, appL, combined, Options{})
	if got.Stats != legacy.Stats {
		t.Fatalf("partitioned stats %+v, legacy two-cache %+v", got.Stats, legacy.Stats)
	}
	if !reflect.DeepEqual(got.BlockMisses, legacy.BlockMisses) ||
		!reflect.DeepEqual(got.BlockSelf, legacy.BlockSelf) ||
		!reflect.DeepEqual(got.BlockCross, legacy.BlockCross) {
		t.Fatal("partitioned per-block miss attribution differs from legacy two-cache replay")
	}
}

// TestDynamicPartitionStreamedMatchesMaterialised checks a dynamic
// repartitioning controller is deterministic across engine modes: windows
// are event-count based, so a streamed replay repartitions at exactly the
// same points as a materialised one, at any worker count — and as the
// reference replay, whose controller hears the same event and miss traffic.
func TestDynamicPartitionStreamedMatchesMaterialised(t *testing.T) {
	tr, osL, appL := mixedTrace(40_000, 13)
	sp, err := partition.Parse("interval,every=2,grain=1")
	if err != nil {
		t.Fatal(err)
	}
	sp, err = sp.WithDefaults(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{Size: 8 << 10, Line: 32, Assoc: 8, Part: sp.Initial()}

	type runOut struct {
		res  *Result
		ctrl *partition.Controller
	}
	do := func(src *trace.Trace, workers int) runOut {
		ctrl := partition.NewController(sp, 16, nil)
		ress, err := RunManyOpt(src, osL, appL, []cache.Config{cfg}, Options{
			Observers: []obs.Observer{ctrl},
			Setups:    []CacheSetup{ctrl.Bind},
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Err(); err != nil {
			t.Fatal(err)
		}
		return runOut{ress[0], ctrl}
	}
	want := do(tr, 1)
	if want.ctrl.Events().Events == 0 {
		t.Fatal("controller never repartitioned; the scenario exercises nothing")
	}
	refCtrl := partition.NewController(sp, 16, nil)
	ref, _ := reference(t, tr, osL, appL, cfg, simtest.Options{Setup: refCtrl.Bind, Observer: refCtrl})
	if !reflect.DeepEqual(want.res, ref) || want.ctrl.Final() != refCtrl.Final() || want.ctrl.Events() != refCtrl.Events() {
		t.Errorf("engine differs from the reference replay (final %v vs %v, events %+v vs %+v)",
			want.ctrl.Final(), refCtrl.Final(), want.ctrl.Events(), refCtrl.Events())
	}
	for _, workers := range []int{2, 8} {
		for _, streamed := range []bool{false, true} {
			src := tr
			if streamed {
				src = tr.ChunkView(1 << 10)
			}
			got := do(src, workers)
			if !reflect.DeepEqual(want.res, got.res) {
				t.Errorf("workers=%d streamed=%v: result differs", workers, streamed)
			}
			if want.ctrl.Final() != got.ctrl.Final() || want.ctrl.Events() != got.ctrl.Events() {
				t.Errorf("workers=%d streamed=%v: controller state differs (final %v vs %v, events %+v vs %+v)",
					workers, streamed, want.ctrl.Final(), got.ctrl.Final(), want.ctrl.Events(), got.ctrl.Events())
			}
		}
	}
}

// TestSetupErrorsPropagate: a failing CacheSetup aborts the run, and a
// mis-sized Setups slice is rejected up front.
func TestSetupErrorsPropagate(t *testing.T) {
	tr, osL, appL := mixedTrace(1_000, 3)
	cfg := cache.Config{Size: 1 << 10, Line: 32, Assoc: 1}
	boom := errors.New("boom")
	_, err := RunManyOpt(tr, osL, appL, []cache.Config{cfg}, Options{
		Setups: []CacheSetup{func(*cache.Cache) error { return boom }},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("setup error not propagated: %v", err)
	}
	_, err = RunManyOpt(tr, osL, appL, []cache.Config{cfg, cfg}, Options{
		Setups: []CacheSetup{nil},
	})
	if err == nil {
		t.Fatal("mis-sized Setups accepted")
	}
}
