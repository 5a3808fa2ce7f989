package simulate

import (
	"math/rand"
	"reflect"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/program"
	"oslayout/internal/simtest"
	"oslayout/internal/trace"
)

// mixedTrace builds a representative two-domain trace: an OS program and an
// application program with varied block sizes (1 to 5 lines each at 32B),
// a locality-skewed random event stream, and invocation markers sprinkled
// in (the engine must skip them exactly like the reference does).
func mixedTrace(events int, seed int64) (*trace.Trace, *layout.Layout, *layout.Layout) {
	sizes := []int32{4, 8, 12, 20, 32, 36, 64, 100, 144, 8, 16, 24, 60}
	build := func(name string, n int) *program.Program {
		p := program.New(name)
		r := p.AddRoutine("r")
		for i := 0; i < n; i++ {
			p.AddBlock(r, sizes[i%len(sizes)])
		}
		return p
	}
	osP := build("os", 48)
	appP := build("app", 24)
	osL := layout.NewBase(osP, 0)
	appL := layout.NewBase(appP, AppBase)

	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: "mixed", OS: osP, App: appP}
	hotOS := []program.BlockID{1, 2, 3, 7, 11}
	for i := 0; i < events; i++ {
		switch {
		case i%97 == 0:
			tr.Events = append(tr.Events, trace.BeginEvent(program.SeedClass(rng.Intn(2))))
		case i%97 == 50:
			tr.Events = append(tr.Events, trace.EndEvent())
		case rng.Intn(3) == 0:
			b := program.BlockID(rng.Intn(appP.NumBlocks()))
			tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainApp, b))
		case rng.Intn(2) == 0:
			tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainOS, hotOS[rng.Intn(len(hotOS))]))
		default:
			b := program.BlockID(rng.Intn(osP.NumBlocks()))
			tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainOS, b))
		}
	}
	return tr, osL, appL
}

// equivalenceGrid mixes line sizes, direct-mapped and 2/4-way geometries,
// power-of-two and modulo set counts, and LRU and random replacement.
var equivalenceGrid = []cache.Config{
	{Size: 1 << 10, Line: 16, Assoc: 1},
	// Nested direct-mapped power-of-two sizes at one line size, listed out
	// of order: these form the engine's inclusion chain.
	{Size: 4 << 10, Line: 32, Assoc: 1},
	{Size: 1 << 10, Line: 32, Assoc: 1},
	{Size: 2 << 10, Line: 32, Assoc: 1},
	{Size: 1536, Line: 32, Assoc: 1}, // 48 sets: modulo indexing
	{Size: 2 << 10, Line: 32, Assoc: 2},
	{Size: 2 << 10, Line: 64, Assoc: 4},
	{Size: 2 << 10, Line: 32, Assoc: 4, Policy: cache.RandomReplacement},
	{Size: 1536, Line: 16, Assoc: 2, Policy: cache.RandomReplacement},
	{Size: 4 << 10, Line: 128, Assoc: 1},
	{Size: 4 << 10, Line: 256, Assoc: 2},
}

// TestRunManyMatchesIndividualRuns checks one batched replay of the mixed
// grid against the naive per-config reference replay.
func TestRunManyMatchesIndividualRuns(t *testing.T) {
	tr, osL, appL := mixedTrace(30_000, 42)
	many, err := RunManyOpt(tr, osL, appL, equivalenceGrid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(equivalenceGrid) {
		t.Fatalf("got %d results for %d configs", len(many), len(equivalenceGrid))
	}
	for i, cfg := range equivalenceGrid {
		one, _ := reference(t, tr, osL, appL, cfg, simtest.Options{})
		if !reflect.DeepEqual(one, many[i]) {
			t.Errorf("%v: batched result differs from the reference\n  ref:     %+v\n  batched: %+v",
				cfg, one.Stats, many[i].Stats)
		}
		if many[i].Stats.TotalMisses() == 0 {
			t.Errorf("%v: degenerate run with zero misses", cfg)
		}
	}
}

func TestRunManyOSOnlyTrace(t *testing.T) {
	tr, osL := conflictTrace(10)
	cfgs := []cache.Config{
		{Size: 64, Line: 32, Assoc: 1},
		{Size: 128, Line: 32, Assoc: 1},
		{Size: 64, Line: 64, Assoc: 1},
	}
	many, err := RunManyOpt(tr, osL, nil, cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		one, _ := reference(t, tr, osL, nil, cfg, simtest.Options{})
		if !reflect.DeepEqual(one, many[i]) {
			t.Errorf("%v: mismatch (many %+v, one %+v)", cfg, many[i].Stats, one.Stats)
		}
	}
	// The 64B DM cache thrashes; the 128B one holds both lines.
	if many[0].Stats.TotalMisses() != 20 || many[1].Stats.TotalMisses() != 2 {
		t.Errorf("misses = %d/%d, want 20/2", many[0].Stats.TotalMisses(), many[1].Stats.TotalMisses())
	}
}

func TestRunManyValidation(t *testing.T) {
	tr, osL := conflictTrace(2)
	if _, err := RunManyOpt(tr, osL, nil, []cache.Config{{Size: 100, Line: 32, Assoc: 1}}, Options{}); err == nil {
		t.Error("invalid config accepted")
	}
	other, _, _ := mixedTrace(10, 1)
	foreign := layout.NewBase(other.OS, 0)
	if _, err := RunManyOpt(tr, foreign, nil, []cache.Config{{Size: 64, Line: 32, Assoc: 1}}, Options{}); err == nil {
		t.Error("foreign layout accepted")
	}
	res, err := RunManyOpt(tr, osL, nil, nil, Options{})
	if err != nil || len(res) != 0 {
		t.Errorf("empty config list: res=%v err=%v", res, err)
	}
}

// TestUtilizationMatchesReference tracks line utilization on every other
// config of the partitioned grid — plus a 4-set cache whose longest blocks
// span more lines than it has sets — through materialised and streamed
// replays at 1 and 4 workers. Every result, and every tracked cache's
// utilization account, must match the reference replay; untracked configs
// sharing the batch must be unaffected.
func TestUtilizationMatchesReference(t *testing.T) {
	tr, osL, appL := mixedTrace(20_000, 17)
	cfgs := append(partitionedGrid(), cache.Config{Size: 64, Line: 16, Assoc: 1})
	want := make([]*Result, len(cfgs))
	wantU := make([]cache.UtilStats, len(cfgs))
	for i, cfg := range cfgs {
		want[i], wantU[i] = reference(t, tr, osL, appL, cfg, simtest.Options{Setup: (*cache.Cache).EnableUtilization})
	}
	if wantU[len(cfgs)-1].Evictions == 0 {
		t.Fatal("the 4-set cache evicted nothing; the scenario exercises nothing")
	}
	for _, workers := range []int{1, 4} {
		for _, streamed := range []bool{false, true} {
			src := tr
			if streamed {
				src = tr.ChunkView(1 << 10)
			}
			caches := make([]*cache.Cache, len(cfgs))
			setups := make([]CacheSetup, len(cfgs))
			for i := range cfgs {
				if i%2 == 0 {
					setups[i] = func(c *cache.Cache) error {
						caches[i] = c
						return c.EnableUtilization()
					}
				}
			}
			got, err := RunManyOpt(src, osL, appL, cfgs, Options{Setups: setups, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Errorf("workers=%d streamed=%v %v: result differs from the reference", workers, streamed, cfg)
				}
				if caches[i] != nil && caches[i].Util != wantU[i] {
					t.Errorf("workers=%d streamed=%v %v: utilization %+v, reference %+v",
						workers, streamed, cfg, caches[i].Util, wantU[i])
				}
			}
		}
	}
}
