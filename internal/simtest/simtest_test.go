package simtest

import (
	"fmt"
	"math/rand"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/progtest"
	"oslayout/internal/trace"
)

// refGrid spans the geometries RefCache models: direct-mapped and
// set-associative, power-of-two and modulo set counts, several line sizes,
// and static way partitions including a reserved region.
var refGrid = []cache.Config{
	{Size: 1 << 10, Line: 32, Assoc: 1},
	{Size: 1536, Line: 32, Assoc: 1},
	{Size: 2 << 10, Line: 16, Assoc: 2},
	{Size: 1536, Line: 64, Assoc: 2},
	{Size: 4 << 10, Line: 32, Assoc: 4},
	{Size: 3 << 10, Line: 128, Assoc: 4},
	{Size: 2 << 10, Line: 32, Assoc: 2, Part: cache.Partition{OSWays: 1, AppWays: 1}},
	{Size: 4 << 10, Line: 32, Assoc: 4, Part: cache.Partition{ResvWays: 1}},
	{Size: 3 << 10, Line: 32, Assoc: 4, Part: cache.Partition{ResvWays: 1, OSWays: 2}},
	{Size: 8 << 10, Line: 32, Assoc: 8, Part: cache.Partition{OSWays: 5, AppWays: 2}},
}

// TestRefCacheMatchesCache drives one locality-skewed two-domain line
// stream through RefCache and cache.Cache on every grid geometry and
// checks every access is classified identically.
func TestRefCacheMatchesCache(t *testing.T) {
	for _, cfg := range refGrid {
		t.Run(fmt.Sprint(cfg), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.Size + cfg.Line + cfg.Assoc)))
			appBase := uint64(trace.AppBase) / uint64(cfg.Line)
			var reserved []uint64
			for l := uint64(0); l < 400; l += 7 {
				reserved = append(reserved, l)
			}
			ref, err := NewRefCache(cfg, reserved)
			if err != nil {
				t.Fatal(err)
			}
			c := cache.MustNew(cfg)
			if cfg.Part.ResvWays > 0 {
				if err := c.SetReservedLines(reserved); err != nil {
					t.Fatal(err)
				}
			}
			var misses uint64
			for i := 0; i < 50_000; i++ {
				d := trace.DomainOS
				line := uint64(rng.Intn(400))
				if rng.Intn(8) == 0 {
					line = uint64(rng.Intn(24)) // hot OS loop
				}
				if rng.Intn(3) == 0 {
					d, line = trace.DomainApp, appBase+uint64(rng.Intn(250))
				}
				want, got := ref.Access(line, d), c.AccessLine(line, d)
				if want != got {
					t.Fatalf("access %d (line %#x, %v): RefCache %v, cache.Cache %v", i, line, d, want, got)
				}
				if got != cache.Hit {
					misses++
				}
			}
			if ref.Stats != c.Stats {
				t.Errorf("stats differ:\n  ref:   %+v\n  cache: %+v", ref.Stats, c.Stats)
			}
			if misses == 0 || c.Stats.Self == ([trace.NumDomains]uint64{}) {
				t.Errorf("degenerate stream: %d misses, self %v", misses, c.Stats.Self)
			}
		})
	}
}

func TestNewRefCacheRejects(t *testing.T) {
	if _, err := NewRefCache(cache.Config{Size: 100, Line: 32, Assoc: 1}, nil); err == nil {
		t.Error("invalid geometry accepted")
	}
	if _, err := NewRefCache(cache.Config{Size: 1 << 10, Line: 32, Assoc: 2, Policy: cache.RandomReplacement}, nil); err == nil {
		t.Error("random replacement accepted")
	}
}

// TestRefReplayCounts checks RefReplay on a hand-countable trace: two
// 8-byte blocks alternating on one 32-byte-line set of a 64-byte
// direct-mapped cache thrash, and each evicted line used 2 of its 8 words.
func TestRefReplayCounts(t *testing.T) {
	p, _ := progtest.Linear(2, 8)
	l := layout.New("u", p, 0)
	l.Place(0, 0)
	l.Place(1, 64)
	tr := &trace.Trace{Name: "t", OS: p}
	for i := 0; i < 10; i++ {
		tr.Events = append(tr.Events, trace.BlockEvent(trace.DomainOS, 0), trace.BlockEvent(trace.DomainOS, 1))
	}
	res, err := RefReplay(tr, l, nil, cache.Config{Size: 64, Line: 32, Assoc: 1},
		Options{Setup: (*cache.Cache).EnableUtilization})
	if err != nil {
		t.Fatal(err)
	}
	st := &res.Stats
	if st.Misses[trace.DomainOS] != 20 || st.Cold[trace.DomainOS] != 2 || st.Self[trace.DomainOS] != 18 {
		t.Errorf("misses/cold/self = %d/%d/%d, want 20/2/18", st.Misses[0], st.Cold[0], st.Self[0])
	}
	if st.Refs[trace.DomainOS] != 40 {
		t.Errorf("refs = %d, want 40", st.Refs[trace.DomainOS])
	}
	if res.BlockSelf[trace.DomainOS][0] != 9 || res.BlockMisses[trace.DomainOS][1] != 10 {
		t.Errorf("per-block misses %v, self %v", res.BlockMisses[0], res.BlockSelf[0])
	}
	if res.Util.Evictions != 19 || res.Util.Utilization() != 0.25 {
		t.Errorf("util = %+v (%.2f), want 19 evictions at 0.25", res.Util, res.Util.Utilization())
	}
	other, _ := progtest.Linear(2, 8)
	if _, err := RefReplay(tr, layout.NewBase(other, 0), nil, cache.Config{Size: 64, Line: 32, Assoc: 1}, Options{}); err == nil {
		t.Error("foreign layout accepted")
	}
}

// RefCache is a naive LRU instruction cache with the paper's cold, self
// and cross miss classification. Each set keeps, per way-partition region,
// a slice of resident lines in recency order (most recent first); a miss
// routes to its region, evicts that region's least recent line when it is
// full, and records the evicting domain in a map. It models unpartitioned
// and statically partitioned LRU caches.
type RefCache struct {
	cfg      cache.Config
	ways     [cache.NumRegions]int
	sets     [][cache.NumRegions][]uint64
	reserved map[uint64]bool
	// lastBy records, per line ever fetched, the domain that last evicted
	// it (or first fetched it, until its first eviction).
	lastBy map[uint64]trace.Domain
	Stats  cache.Stats
}

// NewRefCache returns an empty model of the organisation; OS fetches of
// the reserved lines allocate into the reserved region.
func NewRefCache(cfg cache.Config, reserved []uint64) (*RefCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy != cache.LRU {
		return nil, fmt.Errorf("simtest: RefCache models LRU only, not %s", cfg.Policy)
	}
	p := cfg.Part
	c := &RefCache{
		cfg:      cfg,
		sets:     make([][cache.NumRegions][]uint64, cfg.NumSets()),
		reserved: make(map[uint64]bool),
		lastBy:   make(map[uint64]trace.Domain),
	}
	c.ways[cache.RegionResv] = p.ResvWays
	c.ways[cache.RegionOS] = p.OSWays
	c.ways[cache.RegionApp] = p.AppWays
	c.ways[cache.RegionShared] = cfg.Assoc - p.ResvWays - p.OSWays - p.AppWays
	for _, l := range reserved {
		c.reserved[l] = true
	}
	return c, nil
}

// Access fetches one line from domain d and classifies the outcome.
func (c *RefCache) Access(line uint64, d trace.Domain) cache.MissClass {
	set := &c.sets[line%uint64(len(c.sets))]
	r := c.route(line, d)
	for i, l := range set[r] {
		if l == line {
			copy(set[r][1:i+1], set[r][:i])
			set[r][0] = line
			return cache.Hit
		}
	}
	c.Stats.Misses[d]++
	by, seen := c.lastBy[line]
	class := cache.ColdMiss
	switch {
	case !seen:
		c.Stats.Cold[d]++
		c.lastBy[line] = d
	case by == d:
		class = cache.SelfMiss
		c.Stats.Self[d]++
	default:
		class = cache.CrossMiss
		c.Stats.Cross[d]++
	}
	lines := set[r]
	if len(lines) == c.ways[r] {
		c.lastBy[lines[len(lines)-1]] = d
		lines = lines[:len(lines)-1]
	}
	set[r] = append([]uint64{line}, lines...)
	return class
}

// route picks the region a fetch allocates into: the reserved region for
// reserved OS lines, then the domain's dedicated region, else the shared
// ways.
func (c *RefCache) route(line uint64, d trace.Domain) cache.Region {
	switch {
	case d == trace.DomainOS && c.reserved[line] && c.ways[cache.RegionResv] > 0:
		return cache.RegionResv
	case d == trace.DomainOS && c.ways[cache.RegionOS] > 0:
		return cache.RegionOS
	case d == trace.DomainApp && c.ways[cache.RegionApp] > 0:
		return cache.RegionApp
	}
	return cache.RegionShared
}
