// Package chlayout implements the comparison algorithm the paper calls
// "C-H": Hwu and Chang's profile-guided instruction placement ("Achieving
// High Instruction Cache Performance with an Optimizing Compiler", ISCA
// 1989). It has two parts:
//
//  1. trace selection inside each routine: basic blocks that tend to execute
//     in sequence are grouped into traces and placed contiguously, hot
//     traces first, with never-executed blocks moved to the end of the
//     routine;
//  2. routine ordering: routines are chained so that frequent callees
//     follow immediately after their callers (greedy merging of the
//     weighted call graph, heaviest call edges first).
//
// Unlike the paper's own algorithm (internal/core), C-H never splits a
// routine across another routine's blocks and reserves no self-conflict-free
// area.
package chlayout

import (
	"sort"

	"oslayout/internal/layout"
	"oslayout/internal/profile"
	"oslayout/internal/program"
)

// OrderRoutineBlocks performs intra-routine trace selection for routine r,
// returning its blocks in placement order: executed traces by decreasing
// weight, then unexecuted blocks in original order.
func OrderRoutineBlocks(p *program.Program, prof *profile.Profile, r program.RoutineID) []program.BlockID {
	rt := p.Routine(r)
	placed := make(map[program.BlockID]bool, len(rt.Blocks))

	type tr struct {
		blocks []program.BlockID
		weight uint64
		seed   uint64 // weight of the trace's seed block, for ordering ties
	}
	var traces []tr

	// Grow traces starting from the heaviest unplaced executed block. The
	// entry block always seeds the first trace so the routine starts at its
	// entry.
	pick := func() program.BlockID {
		if !placed[rt.Entry] && prof.Block[rt.Entry] > 0 {
			return rt.Entry
		}
		best := program.NoBlock
		var bw uint64
		for _, b := range rt.Blocks {
			if placed[b] {
				continue
			}
			if w := prof.Block[b]; w > 0 && (best == program.NoBlock || w > bw) {
				best, bw = b, w
			}
		}
		return best
	}

	for {
		seed := pick()
		if seed == program.NoBlock {
			break
		}
		t := tr{seed: prof.Block[seed]}
		// Grow forward along the heaviest outgoing arc.
		for b := seed; b != program.NoBlock; {
			placed[b] = true
			t.blocks = append(t.blocks, b)
			t.weight += prof.Block[b]
			blk := p.Block(b)
			next := program.NoBlock
			var bw uint64
			consider := func(to program.BlockID, w uint64) {
				if placed[to] || prof.Block[to] == 0 || w == 0 {
					return
				}
				if next == program.NoBlock || w > bw {
					next, bw = to, w
				}
			}
			for j, a := range blk.Out {
				consider(a.To, prof.Arc[b][j])
			}
			if blk.HasCall && blk.Call.Cont != program.NoBlock {
				consider(blk.Call.Cont, prof.Call[b])
			}
			b = next
		}
		traces = append(traces, t)
	}
	// Hot traces first; the entry's trace stays first regardless (it is the
	// heaviest in well-formed profiles, but guarantee it anyway).
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].weight > traces[j].weight })
	for i, t := range traces {
		if len(t.blocks) > 0 && t.blocks[0] == rt.Entry && i != 0 {
			traces[0], traces[i] = traces[i], traces[0]
			break
		}
	}

	out := make([]program.BlockID, 0, len(rt.Blocks))
	for _, t := range traces {
		out = append(out, t.blocks...)
	}
	for _, b := range rt.Blocks {
		if !placed[b] {
			out = append(out, b)
		}
	}
	return out
}

// OrderRoutines computes the inter-routine placement order: greedy chaining
// of the weighted call graph so frequent callees directly follow their
// callers, with unexecuted routines appended in original order.
func OrderRoutines(p *program.Program, prof *profile.Profile) []program.RoutineID {
	// Collect call edges with weights.
	type edge struct {
		from, to program.RoutineID
		w        uint64
	}
	agg := make(map[[2]program.RoutineID]uint64)
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		if n := prof.Call[bi]; b.HasCall && n > 0 && b.Routine != b.Call.Callee {
			agg[[2]program.RoutineID{b.Routine, b.Call.Callee}] += n
		}
	}
	edges := make([]edge, 0, len(agg))
	for k, w := range agg {
		edges = append(edges, edge{k[0], k[1], w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})

	// Union-find over chains; each chain is a doubly-linked order.
	chainOf := make([]int, p.NumRoutines())
	for i := range chainOf {
		chainOf[i] = i
	}
	chains := make(map[int][]program.RoutineID, p.NumRoutines())
	for i := 0; i < p.NumRoutines(); i++ {
		chains[i] = []program.RoutineID{program.RoutineID(i)}
	}
	for _, e := range edges {
		ca, cb := chainOf[e.from], chainOf[e.to]
		if ca == cb {
			continue
		}
		// Concatenate so the callee's chain follows the caller's.
		merged := append(chains[ca], chains[cb]...)
		for _, r := range chains[cb] {
			chainOf[r] = ca
		}
		chains[ca] = merged
		delete(chains, cb)
	}

	// Order chains by total invocation weight, heaviest first; fully cold
	// chains keep original relative order at the end.
	type chain struct {
		id     int
		rs     []program.RoutineID
		weight uint64
		first  program.RoutineID
	}
	var cs []chain
	for id, rs := range chains {
		var w uint64
		for _, r := range rs {
			w += prof.RoutineInv[r]
		}
		cs = append(cs, chain{id: id, rs: rs, weight: w, first: rs[0]})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].weight != cs[j].weight {
			return cs[i].weight > cs[j].weight
		}
		return cs[i].first < cs[j].first
	})
	out := make([]program.RoutineID, 0, p.NumRoutines())
	for _, c := range cs {
		out = append(out, c.rs...)
	}
	return out
}

// New builds the complete C-H layout for program p from profile prof at
// the given base.
func New(p *program.Program, prof *profile.Profile, base uint64) *layout.Layout {
	l := layout.New("C-H", p, base)
	pb := layout.NewBuilder(l)
	for _, r := range OrderRoutines(p, prof) {
		pb.AppendAll(OrderRoutineBlocks(p, prof, r))
	}
	return l
}
