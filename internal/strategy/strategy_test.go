// External test package: imports the root package to drive the registry
// with a real study. The root package imports internal/strategy, so these
// tests live in strategy_test to keep the production dependency one-way.
package strategy_test

import (
	"maps"
	"testing"

	"oslayout"
	"oslayout/internal/core"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/strategy"
)

// testStudy builds a fast study for registry tests.
func testStudy(t *testing.T) *oslayout.Study {
	t.Helper()
	st, err := oslayout.NewStudy(oslayout.StudyOptions{
		Kernel: oslayout.KernelConfig{Seed: 11, TotalCodeBytes: 250 << 10, PoolScale: 0.3},
		Trace:  oslayout.TraceOptions{OSRefs: 250_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRegistryHasAllBuiltins(t *testing.T) {
	names := strategy.Names()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"base", "shuffle", "mcf", "ph", "ch", "opts", "optl", "optcall"} {
		if !have[want] {
			t.Errorf("builtin strategy %q not registered (have %v)", want, names)
		}
	}
	if _, err := strategy.Get("nonesuch"); err == nil {
		t.Error("unknown strategy name accepted")
	}
}

// TestGoldenDeterminism is the registry's reproducibility contract: building
// any registered strategy on two independently constructed but identically
// seeded studies must yield byte-identical block placements.
func TestGoldenDeterminism(t *testing.T) {
	stA, stB := testStudy(t), testStudy(t)
	cacheA, cacheB := strategy.NewCache(stA), strategy.NewCache(stB)
	for _, name := range strategy.Names() {
		p := strategy.Params{CacheSize: 8 << 10}
		a, err := cacheA.Build(name, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := cacheB.Build(name, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := a.Layout.Validate(); err != nil {
			t.Fatalf("%s: invalid layout: %v", name, err)
		}
		if a.Layout.Name != b.Layout.Name {
			t.Errorf("%s: layout names differ: %q vs %q", name, a.Layout.Name, b.Layout.Name)
		}
		if len(a.Layout.Addr) != len(b.Layout.Addr) {
			t.Fatalf("%s: %d vs %d placed blocks", name, len(a.Layout.Addr), len(b.Layout.Addr))
		}
		for blk, addr := range a.Layout.Addr {
			if b.Layout.Addr[blk] != addr {
				t.Fatalf("%s: block %d placed at %#x vs %#x — build is nondeterministic",
					name, blk, addr, b.Layout.Addr[blk])
			}
		}
		if (a.Plan == nil) != (b.Plan == nil) {
			t.Errorf("%s: plan presence differs between builds", name)
		}
	}
}

// TestCacheMemoization pins the cache-key semantics: repeated builds share
// one product, size-independent strategies share across cache sizes, and
// size-dependent ones do not.
func TestCacheMemoization(t *testing.T) {
	c := strategy.NewCache(testStudy(t))
	b1, err := c.Build("ch", strategy.Params{CacheSize: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Build("ch", strategy.Params{CacheSize: 16 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("size-independent strategy rebuilt for a different cache size")
	}
	o1, err := c.Build("opts", strategy.Params{CacheSize: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := c.Build("opts", strategy.Params{CacheSize: 16 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Error("size-dependent strategy shared one build across cache sizes")
	}
	o3, err := c.Build("opts", strategy.Params{CacheSize: 4 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o3 {
		t.Error("repeated build with identical params not memoized")
	}
	if o1.Plan == nil {
		t.Error("opts build returned no plan")
	}
	if b1.Plan != nil {
		t.Error("ch build returned a plan; only core-algorithm strategies have one")
	}
}

// TestCustomBuildSpans pins the visibility of custom builds (cutoff
// sweeps, Resv, application layouts): each Custom miss records exactly one
// "layout.custom:<key>" span on the requester's recorder, and a memo hit
// records none.
func TestCustomBuildSpans(t *testing.T) {
	c := strategy.NewCache(testStudy(t))
	rec := obs.NewRecorder()
	builds := 0
	build := func(st strategy.Study) (*layout.Layout, *core.Plan, error) {
		builds++
		return layout.NewBase(st.KernelProgram(), 0), nil, nil
	}
	for i := 0; i < 3; i++ {
		for _, key := range []string{"a", "b"} {
			if _, err := c.Custom(key, rec, build); err != nil {
				t.Fatal(err)
			}
		}
	}
	spans := map[string]int{}
	for _, ph := range rec.Phases() {
		spans[ph.Name]++
	}
	want := map[string]int{"layout.custom:a": 1, "layout.custom:b": 1}
	if !maps.Equal(spans, want) {
		t.Fatalf("recorded spans %v, want %v", spans, want)
	}
	if hits, misses := c.Stats(); builds != 2 || hits != 4 || misses != 2 {
		t.Fatalf("%d builds, %d hits, %d misses; want 2, 4, 2", builds, hits, misses)
	}
}

// TestPHPlacement checks the Pettis-Hansen-specific shape: executed code is
// packed before never-executed code, and the ordering differs from Base
// (the profile actually drives placement).
func TestPHPlacement(t *testing.T) {
	st := testStudy(t)
	c := strategy.NewCache(st)
	ph, err := c.Build("ph", strategy.Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.Build("base", strategy.Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := st.KernelProgram()
	var maxExec, minCold uint64 = 0, ^uint64(0)
	nExec := 0
	// Walk blocks through the program to classify executed vs cold.
	for _, r := range p.Order() {
		for _, b := range p.Routines[r].Blocks {
			end := ph.Layout.BlockEnd(b)
			if st.AvgOS.Block[b] > 0 {
				nExec++
				if end > maxExec {
					maxExec = end
				}
			} else if ph.Layout.Addr[b] < minCold {
				minCold = ph.Layout.Addr[b]
			}
		}
	}
	if nExec == 0 {
		t.Fatal("no executed blocks in test study")
	}
	if minCold != ^uint64(0) && minCold < maxExec {
		t.Errorf("cold block at %#x inside the executed region (ends %#x)", minCold, maxExec)
	}
	same := true
	for b, a := range ph.Layout.Addr {
		if base.Layout.Addr[b] != a {
			same = false
			break
		}
	}
	if same {
		t.Error("PH layout identical to Base; call-graph ordering had no effect")
	}
}
