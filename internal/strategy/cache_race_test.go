package strategy_test

import (
	"sync"
	"testing"

	"oslayout"
	"oslayout/internal/strategy"
)

// TestCacheConcurrentBuilds hammers one Cache from many goroutines — the
// serve daemon's concurrent-jobs shape — mixing repeated requests for the
// same key with distinct keys (different strategies and sizes). Run under
// -race: builds of different keys run concurrently and must share nothing
// mutable, and requests for an in-flight key must wait for its one build.
func TestCacheConcurrentBuilds(t *testing.T) {
	st := testStudy(t)
	c := strategy.NewCache(st)

	var wg sync.WaitGroup
	recs := []*oslayout.Recorder{oslayout.NewRecorder(), nil}
	names := []string{"base", "ch", "ph", "opts"}
	sizes := []int{4 << 10, 8 << 10}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines record their builds, half do not.
			rec := recs[g%2]
			for i := 0; i < 6; i++ {
				name := names[(g+i)%len(names)]
				size := sizes[i%len(sizes)]
				b, err := c.Build(name, strategy.Params{CacheSize: size}, rec)
				if err != nil {
					t.Errorf("%s/%d: %v", name, size, err)
					return
				}
				if err := b.Layout.Validate(); err != nil {
					t.Errorf("%s/%d: invalid layout: %v", name, size, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Memoization must have collapsed the hammering to one build per
	// distinct key: base/ch/ph are size-independent (1 each), opts is
	// size-dependent (2).
	hits, misses := c.Stats()
	if want := uint64(5); misses != want {
		t.Errorf("cache misses = %d, want %d (one per distinct key)", misses, want)
	}
	if hits == 0 {
		t.Error("concurrent hammering produced no cache hits")
	}

	// Same key requested twice returns the identical product.
	a, err := c.Build("opts", strategy.Params{CacheSize: 8 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Build("opts", strategy.Params{CacheSize: 8 << 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated Build returned distinct products")
	}
}

// TestConcurrentBuildStrategy is the public-API face of the same property:
// two (and more) concurrent Study.BuildStrategy calls — same key and
// different keys — must be safe and deterministic.
func TestConcurrentBuildStrategy(t *testing.T) {
	st := testStudy(t)

	// Reference placements, built serially on a second identical study.
	ref := testStudy(t)
	refAddr := map[string][]uint64{}
	for _, name := range []string{"ch", "opts"} {
		l, _, err := ref.BuildStrategy(name, 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		refAddr[name] = l.Addr
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "ch"
			if g%2 == 1 {
				name = "opts"
			}
			l, _, err := st.BuildStrategy(name, 8<<10)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			want := refAddr[name]
			if len(l.Addr) != len(want) {
				t.Errorf("%s: %d placed blocks, want %d", name, len(l.Addr), len(want))
				return
			}
			for blk, addr := range l.Addr {
				if want[blk] != addr {
					t.Errorf("%s: block %d at %#x, want %#x — concurrent builds perturbed placement",
						name, blk, addr, want[blk])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
