// Package mcflayout implements a second comparison baseline in the spirit of
// McFarling's "Program Optimization for Instruction Caches" (ASPLOS 1989),
// which the paper cites as one of the known code-placement techniques
// ("McFarling's technique uses a profile of the conditional, loop, and
// routine structure of the program. With this information, he places the
// basic blocks so that callers of routines, loops, and conditionals do not
// interfere with the callee routines or their descendants").
//
// This simplified reconstruction keeps the two essential moves:
//
//  1. rarely-executed code is excluded from the primary image: every
//     never-executed basic block moves to a cold section at the end, so the
//     active loop/call spans are dense;
//  2. callees are placed immediately after their callers by a weighted
//     depth-first traversal of the call graph from the hottest entry
//     points, so a caller (and any loop containing the call) occupies a
//     contiguous address range with its callees and their descendants —
//     conflict-free whenever the span fits the cache.
//
// It is deliberately weaker than the paper's OptS (no cross-routine
// sequences, no SelfConfFree area) and serves the extension experiment
// comparing baseline families.
package mcflayout

import (
	"sort"

	"oslayout/internal/layout"
	"oslayout/internal/profile"
	"oslayout/internal/program"
)

// OrderRoutines returns the routines in weighted depth-first call order from
// the hottest roots, executed routines only, followed by never-executed
// routines in original order.
func OrderRoutines(p *program.Program, prof *profile.Profile) []program.RoutineID {
	// Aggregate call weights caller → callee.
	type edge struct {
		to program.RoutineID
		w  uint64
	}
	calls := make(map[program.RoutineID][]edge)
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		if n := prof.Call[bi]; b.HasCall && n > 0 && b.Routine != b.Call.Callee {
			calls[b.Routine] = append(calls[b.Routine], edge{b.Call.Callee, n})
		}
	}
	for r := range calls {
		es := calls[r]
		sort.Slice(es, func(i, j int) bool {
			if es[i].w != es[j].w {
				return es[i].w > es[j].w
			}
			return es[i].to < es[j].to
		})
		calls[r] = es
	}

	// Roots: executed routines ordered by invocation count. Seeds first so
	// the entry paths lead the image.
	executed := func(r program.RoutineID) bool {
		for _, b := range p.Routines[r].Blocks {
			if prof.Block[b] > 0 {
				return true
			}
		}
		return false
	}
	var roots []program.RoutineID
	for i := range p.Routines {
		if executed(program.RoutineID(i)) {
			roots = append(roots, program.RoutineID(i))
		}
	}
	sort.SliceStable(roots, func(i, j int) bool {
		return prof.RoutineInv[roots[i]] > prof.RoutineInv[roots[j]]
	})
	var seedRoots []program.RoutineID
	for _, s := range p.Seeds {
		if s != program.NoRoutine {
			seedRoots = append(seedRoots, s)
		}
	}
	roots = append(seedRoots, roots...)

	visited := make([]bool, p.NumRoutines())
	var order []program.RoutineID
	var dfs func(r program.RoutineID)
	dfs = func(r program.RoutineID) {
		if visited[r] {
			return
		}
		visited[r] = true
		order = append(order, r)
		for _, e := range calls[r] {
			dfs(e.to)
		}
	}
	for _, r := range roots {
		dfs(r)
	}
	// Cold routines keep original order at the end.
	for _, r := range p.Order() {
		if !visited[r] {
			order = append(order, r)
		}
	}
	return order
}

// New builds the McFarling-style layout: executed blocks of each routine in
// static order, routines in weighted DFS call order, and every
// never-executed block in a cold section after the hot image.
func New(p *program.Program, prof *profile.Profile, base uint64) *layout.Layout {
	l := layout.New("McF", p, base)
	pb := layout.NewBuilder(l)
	order := OrderRoutines(p, prof)
	var cold []program.BlockID
	for _, r := range order {
		for _, b := range p.Routines[r].Blocks {
			if prof.Block[b] > 0 {
				pb.Append(b)
			} else {
				cold = append(cold, b)
			}
		}
	}
	pb.AppendAll(cold)
	return l
}
