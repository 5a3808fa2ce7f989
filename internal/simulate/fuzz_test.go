package simulate_test

import (
	"fmt"
	"reflect"
	"testing"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/program"
	"oslayout/internal/simtest"
	"oslayout/internal/simulate"
	"oslayout/internal/streamcache"
	"oslayout/internal/trace"
)

// fuzzCase is one replay scenario decoded from fuzz bytes: a small
// two-domain trace under arbitrary layouts, a batch of cache
// organisations with optional utilization tracking and reserved lines, and
// the chunk size and worker count the engine replays it with.
type fuzzCase struct {
	tr         *trace.Trace
	osL, appL  *layout.Layout
	cfgs       []cache.Config
	util       []bool
	reserved   []uint64
	chunk      int
	workers    int
	lineSize   int
	appBlocks  int
	reservedOS int
}

// byteStream hands out fuzz bytes, then zeros once they run out.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeFuzzCase reads, one byte each: line size, chunk size, workers,
// app blocks, reserved OS blocks, config count and OS blocks; then three
// bytes per config (kind, sets, flags); then per program (OS, then app)
// one size byte per block followed by two address bytes per block. Every
// remaining byte is one trace event.
func decodeFuzzCase(data []byte) *fuzzCase {
	b := byteStream(data)
	fc := &fuzzCase{
		lineSize:   16 << (b.next() % 4),
		chunk:      1 + b.next()%8,
		workers:    1 + b.next()%4,
		appBlocks:  b.next() % 9,
		reservedOS: b.next() % 4,
	}
	ncfg := 1 + b.next()%3
	nOS := 1 + b.next()%16
	for k := 0; k < ncfg; k++ {
		kind, sets, flags := b.next()%4, b.next(), b.next()
		var cfg cache.Config
		switch kind {
		case 0: // direct-mapped, power-of-two sets (inclusion-chain candidates)
			cfg = cache.Config{Line: fc.lineSize, Assoc: 1, Size: fc.lineSize << (sets % 5)}
		case 1: // direct-mapped, modulo indexing
			cfg = cache.Config{Line: fc.lineSize, Assoc: 1, Size: fc.lineSize * []int{3, 5, 6, 12}[sets%4]}
		default: // 2- or 4-way, power-of-two or modulo sets
			assoc := 2 << (kind - 2)
			cfg = cache.Config{Line: fc.lineSize, Assoc: assoc, Size: fc.lineSize * assoc * []int{1, 2, 3, 4, 8}[sets%5]}
			switch flags >> 1 % 4 {
			case 1:
				cfg.Part = cache.Partition{OSWays: assoc / 2, AppWays: assoc / 2}
			case 2:
				cfg.Part = cache.Partition{ResvWays: 1}
			case 3:
				cfg.Part = cache.Partition{ResvWays: 1, OSWays: assoc / 4}
			}
		}
		fc.cfgs = append(fc.cfgs, cfg)
		fc.util = append(fc.util, flags%2 == 1)
	}

	build := func(name string, n int, base uint64) (*program.Program, *layout.Layout) {
		p := program.New(name)
		r := p.AddRoutine("r")
		for i := 0; i < n; i++ {
			p.AddBlock(r, int32(4*(1+b.next()%64)))
		}
		l := layout.New(name, p, base)
		for i := 0; i < n; i++ {
			l.Place(program.BlockID(i), base+4*uint64(b.next()<<8|b.next())%4096)
		}
		return p, l
	}
	osP, osL := build("os", nOS, 0)
	fc.tr, fc.osL = &trace.Trace{Name: "fuzz", OS: osP}, osL
	if fc.appBlocks > 0 {
		fc.tr.App, fc.appL = build("app", fc.appBlocks, simulate.AppBase)
	}
	for _, blk := range osL.Addr[:min(fc.reservedOS, nOS)] {
		fc.reserved = append(fc.reserved, blk/uint64(fc.lineSize))
	}
	for _, v := range b {
		switch {
		case v == 0xff:
			fc.tr.Events = append(fc.tr.Events, trace.EndEvent())
		case v&0x80 != 0 && fc.appBlocks > 0:
			fc.tr.Events = append(fc.tr.Events, trace.BlockEvent(trace.DomainApp, program.BlockID(int(v&0x7f)%fc.appBlocks)))
		default:
			fc.tr.Events = append(fc.tr.Events, trace.BlockEvent(trace.DomainOS, program.BlockID(int(v&0x7f)%nOS)))
		}
	}
	return fc
}

// setup returns config k's cache setup: reserved lines for partitions with
// a reserved region, and utilization tracking when flagged. The returned
// pointer receives the built cache.
func (fc *fuzzCase) setup(k int) (func(*cache.Cache) error, **cache.Cache) {
	var built *cache.Cache
	return func(c *cache.Cache) error {
		built = c
		if fc.cfgs[k].Part.ResvWays > 0 {
			if err := c.SetReservedLines(fc.reserved); err != nil {
				return err
			}
		}
		if fc.util[k] {
			return c.EnableUtilization()
		}
		return nil
	}, &built
}

// FuzzReplayMatchesReference checks the engine against the naive
// simtest.RefReplay on fuzz-derived traces, layouts and cache batches:
// per-block misses with their self/cross split, Stats and UtilStats must
// agree on every replay path — materialised with a memoizing stream source
// (cold, then warm), a transient source, and the chunked pipeline.
func FuzzReplayMatchesReference(f *testing.F) {
	// Nested direct-mapped power-of-two caches at one line size, driven by
	// two workers: the inclusion chain skips the larger ones on every
	// smaller-cache hit.
	f.Add([]byte{1, 7, 1, 0, 0, 2, 5,
		0, 1, 0, 0, 2, 0, 0, 3, 0,
		7, 15, 3, 23, 1, 31, 0, 0, 0, 16, 0, 64, 0, 40, 1, 0, 0, 100,
		0, 1, 2, 3, 4, 5, 0, 1, 0, 2, 0, 3, 5, 4, 3, 2, 1, 0, 0, 1})
	// Repeat elision across chunk boundaries: single-event chunks, blocks
	// re-executed back to back, and an 8-byte block starting mid-line on
	// the line the previous one ended on — its words must be marked though
	// its access is elided — in a way-partitioned 4-way cache with
	// utilization tracking.
	f.Add([]byte{0, 0, 3, 2, 0, 0, 2,
		3, 1, 7,
		1, 7, 1, 0, 0, 0, 4, 0, 2,
		2, 5, 0, 0, 0, 8,
		0, 2, 1, 0, 0, 2, 2, 1, 128, 128, 1, 0, 2, 255, 0, 2, 129, 129, 1, 0, 2, 1})
	// A 256-byte block spans 16 lines of a 4-set direct-mapped cache, so
	// it evicts its own earlier lines: words must be marked right after
	// each line's access, before the next one.
	f.Add([]byte{0, 2, 1, 0, 0, 1, 1,
		0, 2, 1, 0, 3, 0,
		63, 3, 0, 0, 0, 130,
		0, 1, 0, 1, 1, 1, 0, 0, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fc := decodeFuzzCase(data)
		n := len(fc.cfgs)
		want := make([]*simtest.Replay, n)
		for k, cfg := range fc.cfgs {
			setup, _ := fc.setup(k)
			ref, err := simtest.RefReplay(fc.tr, fc.osL, fc.appL, cfg, simtest.Options{Setup: setup})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			want[k] = ref
		}
		memo := streamcache.New(0)
		paths := []struct {
			name string
			tr   *trace.Trace
			src  simulate.StreamSource
		}{
			{"memoized-cold", fc.tr, memo},
			{"memoized-warm", fc.tr, memo},
			{"transient", fc.tr, streamcache.New(0).Transient()},
			{fmt.Sprintf("chunked-%d", fc.chunk), fc.tr.ChunkView(fc.chunk), nil},
		}
		for _, p := range paths {
			setups := make([]simulate.CacheSetup, n)
			built := make([]**cache.Cache, n)
			for k := range fc.cfgs {
				var s func(*cache.Cache) error
				s, built[k] = fc.setup(k)
				setups[k] = s
			}
			got, err := simulate.RunManyOpt(p.tr, fc.osL, fc.appL, fc.cfgs,
				simulate.Options{Setups: setups, Streams: p.src, Workers: fc.workers})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			for k, cfg := range fc.cfgs {
				w, g := want[k], got[k]
				if g.Stats != w.Stats ||
					!reflect.DeepEqual(g.BlockMisses, w.BlockMisses) ||
					!reflect.DeepEqual(g.BlockSelf, w.BlockSelf) ||
					!reflect.DeepEqual(g.BlockCross, w.BlockCross) {
					t.Fatalf("%s workers=%d %v: result differs from the reference\n  ref:    %+v\n  engine: %+v",
						p.name, fc.workers, cfg, w.Stats, g.Stats)
				}
				if u := (*built[k]).Util; u != w.Util {
					t.Fatalf("%s workers=%d %v: utilization %+v, reference %+v", p.name, fc.workers, cfg, u, w.Util)
				}
			}
		}
		if h, _ := memo.Stats(); h == 0 {
			t.Fatal("warm memoized replay hit no stream")
		}
	})
}
