package core

import (
	"sort"

	"oslayout/internal/cfa"
	"oslayout/internal/layout"
	"oslayout/internal/profile"
	"oslayout/internal/program"
)

// callPlacement is the plan of the Section 4.4 advanced optimisation: each
// qualifying loop-with-callees is assigned a private logical cache; the
// routines it calls are placed behind it so loop and callees never conflict,
// using a conflict matrix to handle routines shared between loops.
type callPlacement struct {
	// loops are the placed loops in assignment order, with their body
	// blocks (executed, unclaimed) in order.
	loops []callLoop
	// placements are the matrix routines in placement order with their
	// resolved home region and cache offset.
	placements []routinePlacement
	// blocks is the set of every block this plan will place.
	blocks map[program.BlockID]bool
}

type callLoop struct {
	loop   *cfa.Loop
	blocks []program.BlockID
	bytes  uint64
}

type routinePlacement struct {
	routine program.RoutineID
	blocks  []program.BlockID
	bytes   uint64
	// home is the index of the loop region the routine is placed in.
	home int
	// offset is the cache offset (relative to the logical cache) at which
	// it is placed — identical, and reserved, in every caller's region.
	offset uint64
}

func alignedSize(p *program.Program, b program.BlockID) uint64 {
	return uint64(p.Block(b).Size+layout.Align-1) &^ (layout.Align - 1)
}

// planCallOpt builds the conflict matrix of Section 4.4 — X-axis the
// qualifying loops with callees, Y-axis the routines called by at least one
// of them, ranked by invocation count and truncated to maxRoutines — and
// resolves every placement offset. C and S are the logical cache size and
// the SelfConfFree window size.
func planCallOpt(p *program.Program, prof *profile.Profile, qual []*cfa.Loop, maxRoutines int, pulled []bool, C, S uint64) *callPlacement {
	cg := cfa.CallGraph(p)
	cp := &callPlacement{blocks: make(map[program.BlockID]bool)}
	callers := make(map[program.RoutineID][]int)
	for _, lp := range qual {
		if !lp.CallsRoutines {
			continue
		}
		li := len(cp.loops)
		cl := callLoop{loop: lp}
		for _, b := range lp.Body {
			if prof.Block[b] > 0 && !pulled[b] && !cp.blocks[b] {
				cp.blocks[b] = true
				cl.blocks = append(cl.blocks, b)
				cl.bytes += alignedSize(p, b)
			}
		}
		cp.loops = append(cp.loops, cl)
		for _, r := range cfa.LoopCalleeClosure(p, cg, lp) {
			callers[r] = append(callers[r], li)
		}
	}
	if len(cp.loops) == 0 {
		return nil
	}

	// Rank matrix routines by invocation count; keep the top maxRoutines.
	var top []program.RoutineID
	for r := range callers {
		if prof.RoutineInv[r] > 0 {
			top = append(top, r)
		}
	}
	sort.Slice(top, func(i, j int) bool {
		wi, wj := prof.RoutineInv[top[i]], prof.RoutineInv[top[j]]
		if wi != wj {
			return wi > wj
		}
		return top[i] < top[j]
	})
	if len(top) > maxRoutines {
		top = top[:maxRoutines]
	}

	// Resolve offsets: per-region cursors start after the loop bodies
	// (which start at offset S, past the SelfConfFree window).
	cursor := make([]uint64, len(cp.loops))
	for i := range cp.loops {
		cursor[i] = S + cp.loops[i].bytes
	}
	for _, r := range top {
		rp := routinePlacement{routine: r}
		for _, b := range p.Routine(r).Blocks {
			if prof.Block[b] > 0 && !pulled[b] && !cp.blocks[b] {
				rp.blocks = append(rp.blocks, b)
				rp.bytes += alignedSize(p, b)
			}
		}
		if len(rp.blocks) == 0 {
			continue
		}
		ls := callers[r]
		var off uint64
		for _, li := range ls {
			if cursor[li] > off {
				off = cursor[li]
			}
		}
		if off+rp.bytes > C {
			// Would wrap around the logical cache: leave the routine to the
			// ordinary sequences.
			continue
		}
		rp.home = ls[0]
		rp.offset = off
		for _, li := range ls {
			cursor[li] = off + rp.bytes
		}
		for _, b := range rp.blocks {
			cp.blocks[b] = true
		}
		cp.placements = append(cp.placements, rp)
	}
	return cp
}

// emit places the resolved call plan. Region i starts at the first logical
// cache boundary at or after the previous region's end, so regions never
// overlap in memory even if a region's content spills past C bytes.
func (cp *callPlacement) emit(p *program.Program, pb *layout.Builder, base, C, S uint64, placed []bool) {
	if cp == nil || len(cp.loops) == 0 {
		return
	}
	regionBase := make([]uint64, len(cp.loops))
	regionEnd := make([]uint64, len(cp.loops))
	next := pb.Cursor()
	for i := range cp.loops {
		rb := base + (next-base+C-1)/C*C
		regionBase[i] = rb
		pb.Seek(rb + S)
		for _, b := range cp.loops[i].blocks {
			pb.Append(b)
			placed[b] = true
		}
		regionEnd[i] = pb.Cursor()
		next = regionEnd[i]
		if next == rb+S {
			next++ // force distinct regions even for empty loops
		}
	}
	for _, rp := range cp.placements {
		pb.Seek(regionBase[rp.home] + rp.offset)
		for _, b := range rp.blocks {
			pb.Append(b)
			placed[b] = true
		}
		if pb.Cursor() > regionEnd[rp.home] {
			regionEnd[rp.home] = pb.Cursor()
		}
	}
	var end uint64
	for _, e := range regionEnd {
		if e > end {
			end = e
		}
	}
	pb.Seek(end)
}
