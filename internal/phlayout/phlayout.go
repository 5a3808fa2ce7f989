// Package phlayout implements a Pettis-Hansen-style procedure ordering
// ("Profile Guided Code Positioning", PLDI 1990), the classic successor of
// the McFarling baseline and the direct ancestor of modern call-graph
// layout passes (C3, Codestitcher, ext-TSP). The algorithm:
//
//  1. the call graph is collapsed to an undirected graph whose edge weights
//     aggregate the measured call counts between each routine pair;
//  2. every routine starts as a singleton chain; edges are processed from
//     heaviest to lightest, and the two chains containing the endpoints are
//     merged, choosing among the four concatenation orientations the one
//     that places the heaviest-connected chain ends next to each other
//     ("closest is best");
//  3. chains are emitted hottest first, each routine keeping its executed
//     blocks in static order, with every never-executed block moved to a
//     cold section after the hot image.
//
// Like the C-H and McFarling baselines it never splits a routine across
// another routine's blocks and reserves no SelfConfFree area — the two
// ingredients the paper's own algorithm adds on top.
package phlayout

import (
	"sort"

	"oslayout/internal/layout"
	"oslayout/internal/profile"
	"oslayout/internal/program"
)

// pairKey identifies an unordered routine pair with a < b.
type pairKey struct{ a, b program.RoutineID }

// callWeights aggregates call counts into undirected routine-pair weights.
func callWeights(p *program.Program, prof *profile.Profile) map[pairKey]uint64 {
	w := make(map[pairKey]uint64)
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		n := prof.Call[bi]
		if !b.HasCall || n == 0 || b.Routine == b.Call.Callee {
			continue
		}
		k := pairKey{b.Routine, b.Call.Callee}
		if k.a > k.b {
			k.a, k.b = k.b, k.a
		}
		w[k] += n
	}
	return w
}

// chain is a mutable routine sequence during merging.
type chain struct {
	routines []program.RoutineID
	weight   uint64 // total block weight, for final chain ordering
}

// OrderRoutines returns the routines in Pettis-Hansen chain order: executed
// routines grouped by merged call-graph chains (hottest chain first),
// followed by never-executed routines in original order.
func OrderRoutines(p *program.Program, prof *profile.Profile) []program.RoutineID {
	weights := callWeights(p, prof)

	executed := make([]bool, p.NumRoutines())
	routineWeight := make([]uint64, p.NumRoutines())
	for bi, w := range prof.Block {
		if w > 0 {
			r := p.Blocks[bi].Routine
			executed[r] = true
			routineWeight[r] += w
		}
	}

	// Singleton chains for every executed routine.
	chains := make(map[program.RoutineID]*chain) // keyed by member routine
	for i := range p.Routines {
		r := program.RoutineID(i)
		if executed[r] {
			chains[r] = &chain{routines: []program.RoutineID{r}, weight: routineWeight[r]}
		}
	}

	// Heaviest call edges first; ties broken by routine ids so the order is
	// deterministic for a fixed profile.
	type edge struct {
		k pairKey
		w uint64
	}
	edges := make([]edge, 0, len(weights))
	for k, w := range weights {
		if executed[k.a] && executed[k.b] {
			edges = append(edges, edge{k, w})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].k.a != edges[j].k.a {
			return edges[i].k.a < edges[j].k.a
		}
		return edges[i].k.b < edges[j].k.b
	})

	// endWeight scores an orientation: the aggregated call weight between
	// the two routines that become adjacent when the chains are joined.
	endWeight := func(a, b program.RoutineID) uint64 {
		k := pairKey{a, b}
		if k.a > k.b {
			k.a, k.b = k.b, k.a
		}
		return weights[k]
	}
	reverse := func(rs []program.RoutineID) {
		for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
			rs[i], rs[j] = rs[j], rs[i]
		}
	}

	for _, e := range edges {
		ca, cb := chains[e.k.a], chains[e.k.b]
		if ca == cb {
			continue
		}
		// Four orientations: join ca's tail to cb's head after optionally
		// reversing either chain; keep the one with the heaviest seam.
		bestScore := uint64(0)
		bestRA, bestRB := false, false
		first := true
		for _, ra := range []bool{false, true} {
			for _, rb := range []bool{false, true} {
				tail := ca.routines[len(ca.routines)-1]
				if ra {
					tail = ca.routines[0]
				}
				head := cb.routines[0]
				if rb {
					head = cb.routines[len(cb.routines)-1]
				}
				if s := endWeight(tail, head); first || s > bestScore {
					bestScore, bestRA, bestRB, first = s, ra, rb, false
				}
			}
		}
		if bestRA {
			reverse(ca.routines)
		}
		if bestRB {
			reverse(cb.routines)
		}
		ca.routines = append(ca.routines, cb.routines...)
		ca.weight += cb.weight
		for _, r := range cb.routines {
			chains[r] = ca
		}
	}

	// Distinct chains, hottest first; ties by the smallest member id so the
	// order is stable.
	seen := make(map[*chain]bool)
	var final []*chain
	for i := range p.Routines {
		r := program.RoutineID(i)
		c, ok := chains[r]
		if !ok || seen[c] {
			continue
		}
		seen[c] = true
		final = append(final, c)
	}
	sort.SliceStable(final, func(i, j int) bool { return final[i].weight > final[j].weight })

	var order []program.RoutineID
	for _, c := range final {
		order = append(order, c.routines...)
	}
	for _, r := range p.Order() {
		if !executed[r] {
			order = append(order, r)
		}
	}
	return order
}

// New builds the Pettis-Hansen layout: executed blocks of each routine in
// static order, routines in merged chain order, and every never-executed
// block in a cold section after the hot image.
func New(p *program.Program, prof *profile.Profile, base uint64) *layout.Layout {
	l := layout.New("PH", p, base)
	pb := layout.NewBuilder(l)
	var cold []program.BlockID
	for _, r := range OrderRoutines(p, prof) {
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
