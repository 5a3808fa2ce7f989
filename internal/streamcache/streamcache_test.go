package streamcache

import (
	"math/rand"
	"sync"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/program"
	"oslayout/internal/simtest"
	"oslayout/internal/simulate"
	"oslayout/internal/trace"
)

// testTrace builds a small OS-only trace with varied block sizes.
func testTrace(events int, seed int64) *trace.Trace {
	sizes := []int32{4, 12, 32, 60, 100, 8, 24, 144}
	p := program.New("os")
	r := p.AddRoutine("r")
	for i := 0; i < 32; i++ {
		p.AddBlock(r, sizes[i%len(sizes)])
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: "t", OS: p}
	for i := 0; i < events; i++ {
		tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainOS, program.BlockID(rng.Intn(p.NumBlocks()))))
	}
	return tr
}

// TestSingleFlight: many goroutines racing on one key must share a single
// compile — one miss, pointer-identical streams for everyone.
func TestSingleFlight(t *testing.T) {
	tr := testTrace(5_000, 1)
	osL := layout.NewBase(tr.OS, 0)
	c := New(0)
	const n = 16
	got := make([]*simulate.Stream, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			s, err := c.Stream(tr, osL, nil, 32)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different stream pointer", i)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 compile", misses)
	}
	if hits != n-1 {
		t.Errorf("hits = %d, want %d", hits, n-1)
	}
}

// TestConcurrentGrid drives a compare-grid-shaped workload — several
// layouts crossed with several line sizes, each cell requested by several
// goroutines at once — and asserts exactly one compile per (layout, line
// size) cell.
func TestConcurrentGrid(t *testing.T) {
	tr := testTrace(5_000, 2)
	layouts := make([]*layout.Layout, 4)
	for i := range layouts {
		layouts[i] = layout.NewBase(tr.OS, 0)
	}
	lineSizes := []int{16, 32, 64}
	const perCell = 4
	c := New(0)
	type cell struct {
		l    *layout.Layout
		line int
	}
	results := sync.Map{}
	var wg sync.WaitGroup
	for _, l := range layouts {
		for _, ls := range lineSizes {
			for r := 0; r < perCell; r++ {
				wg.Add(1)
				go func(l *layout.Layout, ls int) {
					defer wg.Done()
					s, err := c.Stream(tr, l, nil, ls)
					if err != nil {
						t.Error(err)
						return
					}
					if prev, loaded := results.LoadOrStore(cell{l, ls}, s); loaded && prev != s {
						t.Errorf("cell (%p, %d): two distinct streams", l, ls)
					}
				}(l, ls)
			}
		}
	}
	wg.Wait()
	cells := uint64(len(layouts) * len(lineSizes))
	hits, misses := c.Stats()
	if misses != cells {
		t.Errorf("misses = %d, want one compile per cell (%d)", misses, cells)
	}
	if hits != cells*(perCell-1) {
		t.Errorf("hits = %d, want %d", hits, cells*(perCell-1))
	}
}

// TestErrorsNotCached: a failing key (foreign layout) must recompile — and
// re-fail — on every request instead of pinning the error.
func TestErrorsNotCached(t *testing.T) {
	tr := testTrace(100, 3)
	other := testTrace(100, 4)
	foreign := layout.NewBase(other.OS, 0)
	c := New(0)
	for i := 1; i <= 2; i++ {
		if _, err := c.Stream(tr, foreign, nil, 32); err == nil {
			t.Fatal("foreign layout accepted")
		}
		if _, misses := c.Stats(); misses != uint64(i) {
			t.Errorf("after failure %d: misses = %d, want %d (errors must not cache)", i, misses, i)
		}
	}
}

// TestEvictionLRU pins the byte bound and the recency order: with room for
// three streams, touching A before inserting D must push out B, not A.
func TestEvictionLRU(t *testing.T) {
	tr := testTrace(5_000, 5)
	mk := func() *layout.Layout { return layout.NewBase(tr.OS, 0) }
	lA, lB, lC, lD := mk(), mk(), mk(), mk()

	// Learn the entry sizes, then bound the cache to exactly the decode
	// plus three streams (all four streams have identical geometry).
	ev := simulate.Decode(tr)
	probe, err := simulate.CompileEvents(ev, tr, lA, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	c := New(ev.Bytes() + 3*probe.Bytes())

	for _, l := range []*layout.Layout{lA, lB, lC} {
		if _, err := c.Stream(tr, l, nil, 32); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Stream(tr, lA, nil, 32); err != nil { // refresh A's recency
		t.Fatal(err)
	}
	if _, err := c.Stream(tr, lD, nil, 32); err != nil { // must evict B
		t.Fatal(err)
	}
	if c.Evictions() == 0 {
		t.Fatal("no eviction despite exceeding the byte bound")
	}
	if c.Bytes() > ev.Bytes()+3*probe.Bytes() {
		t.Errorf("footprint %d exceeds bound %d", c.Bytes(), ev.Bytes()+3*probe.Bytes())
	}
	hits0, misses0 := c.Stats()
	if _, err := c.Stream(tr, lA, nil, 32); err != nil {
		t.Fatal(err)
	}
	if hits, _ := c.Stats(); hits != hits0+1 {
		t.Error("recently-touched A was evicted; LRU order wrong")
	}
	if _, err := c.Stream(tr, lB, nil, 32); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Stats(); misses != misses0+1 {
		t.Error("least-recently-used B survived; LRU order wrong")
	}
}

// TestStreamSourceIntegration runs the engine end to end through the cache
// and checks results match the naive reference replay.
func TestStreamSourceIntegration(t *testing.T) {
	tr := testTrace(10_000, 6)
	osL := layout.NewBase(tr.OS, 0)
	cfgs := []cache.Config{
		{Size: 1 << 10, Line: 16, Assoc: 1},
		{Size: 1 << 10, Line: 32, Assoc: 1},
		{Size: 2 << 10, Line: 32, Assoc: 2},
	}
	c := New(0)
	for round := 0; round < 2; round++ {
		for _, cfg := range cfgs {
			want, err := simtest.RefReplay(tr, osL, nil, cfg, simtest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := simulate.RunManyOpt(tr, osL, nil,
				[]cache.Config{cfg}, simulate.Options{Streams: c})
			if err != nil {
				t.Fatal(err)
			}
			if want.Stats != got[0].Stats {
				t.Errorf("round %d %v: cached-stream result differs", round, cfg)
			}
		}
	}
	// Second round must be all hits: 2 distinct line sizes compiled once.
	_, misses := c.Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want one compile per distinct line size (2)", misses)
	}
}
