// Package simulate drives traces through cache models under given layouts.
// It is the counterpart of the paper's "final tool ... the cache simulator,
// with which we determine the effectiveness of the new basic block layout"
// (Section 2.2): the same dynamic trace is replayed under each candidate
// layout and cache organisation.
package simulate

import (
	"fmt"

	"oslayout/internal/cache"
	"oslayout/internal/layout"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// Result is the outcome of one simulation run.
type Result struct {
	// LayoutName names the OS layout evaluated.
	LayoutName string
	Config     cache.Config
	Stats      cache.Stats
	// BlockMisses[d][b] counts misses attributed to block b of domain d.
	// The application slice is nil when the trace has none.
	BlockMisses [trace.NumDomains][]uint64
	// BlockSelf and BlockCross decompose BlockMisses into self- and
	// cross-interference components (the remainder is cold misses).
	BlockSelf  [trace.NumDomains][]uint64
	BlockCross [trace.NumDomains][]uint64
}

// AppBase is the base virtual address of application images: a distinct
// region from the kernel (which sits at low addresses, as in the paper where
// "virtual addresses for operating system code are equal to their physical
// addresses").
const AppBase = trace.AppBase

// checkLayouts validates that the layouts match the trace's programs.
func checkLayouts(t *trace.Trace, osL, appL *layout.Layout) error {
	if osL.Prog != t.OS {
		return fmt.Errorf("simulate: OS layout is for program %q, trace for %q", osL.Prog.Name, t.OS.Name)
	}
	if t.App != nil && appL == nil {
		return fmt.Errorf("simulate: trace has application references but no application layout given")
	}
	return nil
}

// newResult allocates a Result with per-block miss arrays sized to the
// trace's programs.
func newResult(t *trace.Trace, osL *layout.Layout) *Result {
	res := &Result{LayoutName: osL.Name}
	res.BlockMisses[trace.DomainOS] = make([]uint64, t.OS.NumBlocks())
	res.BlockSelf[trace.DomainOS] = make([]uint64, t.OS.NumBlocks())
	res.BlockCross[trace.DomainOS] = make([]uint64, t.OS.NumBlocks())
	if t.App != nil {
		res.BlockMisses[trace.DomainApp] = make([]uint64, t.App.NumBlocks())
		res.BlockSelf[trace.DomainApp] = make([]uint64, t.App.NumBlocks())
		res.BlockCross[trace.DomainApp] = make([]uint64, t.App.NumBlocks())
	}
	return res
}

// HistogramOf aggregates a per-block count slice (misses, say, or
// references) into address-range buckets of the given width under a
// reference layout: the paper plots misses against Base-layout virtual
// addresses even for optimised layouts (Figure 14).
func HistogramOf(perBlock []uint64, ref *layout.Layout, bucket uint64) []uint64 {
	if bucket == 0 {
		bucket = 1 << 10
	}
	n := (ref.End() - ref.Base + bucket - 1) / bucket
	h := make([]uint64, n)
	for b, m := range perBlock {
		if m == 0 {
			continue
		}
		idx := (ref.Addr[b] - ref.Base) / bucket
		if idx < uint64(len(h)) {
			h[idx] += m
		}
	}
	return h
}

// RefHistogram aggregates per-block references — prof's execution counts
// times block words — into address-range buckets under a reference layout
// (Figure 2).
func RefHistogram(p *program.Program, prof *profile.Profile, ref *layout.Layout, bucket uint64) []uint64 {
	refs := make([]uint64, len(p.Blocks))
	for b := range p.Blocks {
		refs[b] = prof.Block[b] * trace.RefsOf(p.Blocks[b].Size)
	}
	return HistogramOf(refs, ref, bucket)
}
