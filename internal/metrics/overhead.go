package metrics

// Branch-overhead accounting for basic-block motion, reproducing the
// paper's Section 4.3 claim: "To perform the basic block motion required to
// expose the three localities, we have to add extra branches, and therefore
// the code increases in size. However, since we also remove some branches,
// the increase in dynamic size is, on average, as low as 2.0%."
//
// The model: a control transfer from block A to block B costs an explicit
// branch instruction unless B is placed immediately after A (fall-through).
// A layout that separates previously-adjacent blocks adds branches; one that
// makes a hot taken-branch target adjacent removes them. We charge one extra
// instruction word per non-adjacent transition execution and compare the
// dynamic totals of two layouts.

import (
	"oslayout/internal/layout"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// BranchAccounting summarises the dynamic branch cost of one layout.
type BranchAccounting struct {
	// DynamicBranches is the weighted count of transitions requiring an
	// explicit branch (the successor is not the next placed block).
	DynamicBranches uint64
	// DynamicFallthroughs is the weighted count of free transitions.
	DynamicFallthroughs uint64
	// DynamicInstructions is the total weighted instruction-word count of
	// the program (excluding the charged branches).
	DynamicInstructions uint64
	// StaticBranchSites counts blocks whose hottest successor is not
	// adjacent (each needs a branch instruction emitted).
	StaticBranchSites int
}

// adjacent reports whether block b is placed so that control can fall
// through from block a.
func adjacent(l *layout.Layout, a, b program.BlockID) bool {
	end := l.Addr[a] + uint64(l.Prog.Block(a).Size)
	// Alignment padding of up to Align-1 bytes still counts as adjacency
	// (the assembler pads with no-ops or alignment, not branches).
	return l.Addr[b] >= end && l.Addr[b]-end < layout.Align
}

// AccountBranches computes the dynamic branch cost of a layout under
// profile prof.
func AccountBranches(p *program.Program, prof *profile.Profile, l *layout.Layout) BranchAccounting {
	var acc BranchAccounting
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		w := prof.Block[bi]
		if w == 0 {
			continue
		}
		acc.DynamicInstructions += w * trace.RefsOf(b.Size)
		id := program.BlockID(bi)
		static := false
		for j, a := range b.Out {
			aw := prof.Arc[bi][j]
			if aw == 0 {
				continue
			}
			if adjacent(l, id, a.To) {
				acc.DynamicFallthroughs += aw
			} else {
				acc.DynamicBranches += aw
				static = true
			}
		}
		if b.HasCall {
			// Calls are explicit instructions under any layout; the return
			// transfers to the continuation, which is free only if the
			// callee... in practice returns are explicit instructions too.
			// Both cost the same under every layout, so they cancel in
			// comparisons and are charged to neither side.
			continue
		}
		if static {
			acc.StaticBranchSites++
		}
	}
	return acc
}

// DynamicOverheadPct returns the percentage increase in dynamic instruction
// count of layout `opt` relative to layout `base`: the paper's "increase in
// dynamic size" metric (≈2.0% for its layouts).
func DynamicOverheadPct(p *program.Program, prof *profile.Profile, base, opt *layout.Layout) float64 {
	ab := AccountBranches(p, prof, base)
	ao := AccountBranches(p, prof, opt)
	baseTotal := ab.DynamicInstructions + ab.DynamicBranches
	optTotal := ao.DynamicInstructions + ao.DynamicBranches
	if baseTotal == 0 {
		return 0
	}
	return 100 * (float64(optTotal) - float64(baseTotal)) / float64(baseTotal)
}
