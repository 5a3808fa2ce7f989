// Package simtest holds the replay engine's test reference: RefReplay, a
// deliberately naive replay that walks a trace event by event and line by
// line through one real cache.Cache — no decode, compile, elision,
// inclusion chain or drive units — so the engine's fast paths are checked
// against code simple enough to verify by reading. It is the reference for
// every cache feature the engine drives: replacement policies, way
// partitions with reserved lines, dynamic repartitioning and line
// utilization. The package's own test checks cache.Cache in turn against
// RefCache, an independent LRU model with per-set recency slices and a
// map of eviction history.
package simtest

import (
	"fmt"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/obs"
	"oslayout/internal/trace"
)

// Replay is the outcome of one reference replay.
type Replay struct {
	Stats cache.Stats
	// Util is the cache's line-utilization account, zero unless the setup
	// enabled tracking.
	Util cache.UtilStats
	// BlockMisses[d][b] counts misses attributed to block b of domain d;
	// BlockSelf and BlockCross split out the interference misses.
	BlockMisses, BlockSelf, BlockCross [trace.NumDomains][]uint64
}

// Options attaches optional hooks to a reference replay.
type Options struct {
	// Setup, when non-nil, prepares the cache before the first access.
	Setup func(*cache.Cache) error
	// Observer, when non-nil, receives Begin, one Event per block event and
	// the Miss and Evict calls each event causes.
	Observer obs.Observer
}

// RefReplay replays t through a fresh cache of organisation cfg under the
// given layouts (appL may be nil for a trace without application). For
// every block event it visits each line the block covers in address
// order, accesses it, and marks the words fetched from it — repeats of the
// previous line included, exactly as a fetch unit would issue them.
func RefReplay(t *trace.Trace, osL, appL *layout.Layout, cfg cache.Config, opt Options) (*Replay, error) {
	if osL.Prog != t.OS || (t.App != nil && (appL == nil || appL.Prog != t.App)) {
		return nil, fmt.Errorf("simtest: layouts do not match the trace's programs")
	}
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	if opt.Setup != nil {
		if err := opt.Setup(c); err != nil {
			return nil, err
		}
	}
	o := opt.Observer
	if o != nil {
		o.Begin(cfg, t.Summarize().Blocks)
		c.SetEvictionHook(o.Evict)
	}
	res := &Replay{}
	layouts := [trace.NumDomains]*layout.Layout{osL, appL}
	for d, l := range layouts {
		if l != nil && (d == int(trace.DomainOS) || t.App != nil) {
			n := l.Prog.NumBlocks()
			res.BlockMisses[d] = make([]uint64, n)
			res.BlockSelf[d] = make([]uint64, n)
			res.BlockCross[d] = make([]uint64, n)
		}
	}
	lineSize := uint64(cfg.Line)
	r := t.Chunks()
	for {
		batch, err := r.Read()
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			break
		}
		for _, e := range batch {
			if !e.IsBlock() {
				continue
			}
			d, b := e.Domain(), e.Block()
			l := layouts[d]
			addr := l.Addr[b]
			end := addr + uint64(l.Prog.Block(b).Size)
			refs := trace.RefsOf(l.Prog.Block(b).Size)
			c.Stats.Refs[d] += refs
			if o != nil {
				o.Event(d, uint32(b), refs)
			}
			for line := addr / lineSize; line*lineSize < end; line++ {
				cl := c.AccessLine(line, d)
				if cl != cache.Hit {
					res.BlockMisses[d][b]++
					if o != nil {
						o.Miss(line, d, cl, uint32(b))
					}
				}
				switch cl {
				case cache.SelfMiss:
					res.BlockSelf[d][b]++
				case cache.CrossMiss:
					res.BlockCross[d][b]++
				}
				lo, hi := max(addr, line*lineSize), min(end, (line+1)*lineSize)
				c.MarkWords(line, int(lo-line*lineSize)/trace.WordSize, int(hi-1-line*lineSize)/trace.WordSize)
			}
		}
	}
	res.Stats, res.Util = c.Stats, c.Util
	return res, nil
}
