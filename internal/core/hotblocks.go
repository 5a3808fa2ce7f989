package core

import (
	"sort"

	"oslayout/internal/cfa"
	"oslayout/internal/profile"
	"oslayout/internal/program"
)

// LoopEntries returns the measured number of times the loop was entered:
// header executions minus back-edge traversals (each iteration after the
// first re-executes the header via a back edge).
func LoopEntries(p *program.Program, prof *profile.Profile, lp *cfa.Loop) uint64 {
	headerW := prof.Block[lp.Header]
	var back uint64
	for _, be := range lp.BackEdges {
		latch := p.Block(be[0])
		for j, a := range latch.Out {
			if a.To == be[1] {
				back += prof.Arc[be[0]][j]
			}
		}
	}
	if back >= headerW {
		if headerW == 0 {
			return 0
		}
		return 1
	}
	return headerW - back
}

// LoopTrips returns the measured mean iterations per invocation of the loop.
// Unexecuted loops report 0.
func LoopTrips(p *program.Program, prof *profile.Profile, lp *cfa.Loop) float64 {
	headerW := prof.Block[lp.Header]
	if headerW == 0 {
		return 0
	}
	entries := LoopEntries(p, prof, lp)
	if entries == 0 {
		return float64(headerW)
	}
	return float64(headerW) / float64(entries)
}

// AdjustedWeights returns per-block execution counts where loop blocks are
// counted as if their loop ran a single iteration per invocation — the
// paper's rule for selecting SelfConfFree blocks without favouring loop
// bodies (Section 4.2). Blocks outside loops keep their measured weight.
func AdjustedWeights(p *program.Program, prof *profile.Profile, loops []cfa.Loop) []uint64 {
	adj := make([]uint64, p.NumBlocks())
	copy(adj, prof.Block)
	inner := cfa.BlocksInLoops(loops)
	for b, lp := range inner {
		w := prof.Block[b]
		if w == 0 {
			continue
		}
		headerW := prof.Block[lp.Header]
		if headerW == 0 {
			continue
		}
		entries := LoopEntries(p, prof, lp)
		a := uint64(float64(w) * float64(entries) / float64(headerW))
		if a == 0 {
			a = 1
		}
		adj[b] = a
	}
	return adj
}

// SelectSelfConfFree returns the blocks whose adjusted execution count is
// individually at least cutoff of the total adjusted count, ordered by
// decreasing adjusted count, plus their total byte size. A non-positive
// cutoff selects nothing.
func SelectSelfConfFree(p *program.Program, adjusted []uint64, cutoff float64) ([]program.BlockID, int64) {
	if cutoff <= 0 {
		return nil, 0
	}
	var total float64
	for _, a := range adjusted {
		total += float64(a)
	}
	threshold := cutoff * total
	var picks []program.BlockID
	for b := range adjusted {
		if adjusted[b] > 0 && float64(adjusted[b]) >= threshold {
			picks = append(picks, program.BlockID(b))
		}
	}
	sort.SliceStable(picks, func(i, j int) bool {
		if adjusted[picks[i]] != adjusted[picks[j]] {
			return adjusted[picks[i]] > adjusted[picks[j]]
		}
		return picks[i] < picks[j]
	})
	var bytes int64
	for _, b := range picks {
		bytes += int64(p.Block(b).Size)
	}
	return picks, bytes
}

// QualifyingLoops returns the executed loops with at least minTrips measured
// iterations per invocation — the set whose blocks the OptL variant pulls
// into the loop area, and (restricted to loops with callees) the set the
// Section 4.4 advanced optimisation places in private logical caches.
func QualifyingLoops(p *program.Program, prof *profile.Profile, loops []cfa.Loop, minTrips float64) []*cfa.Loop {
	var out []*cfa.Loop
	for i := range loops {
		lp := &loops[i]
		if prof.Block[lp.Header] == 0 {
			continue
		}
		if LoopTrips(p, prof, lp) >= minTrips {
			out = append(out, lp)
		}
	}
	return out
}

// LoopBlockSet returns the union of the body blocks of the given loops.
func LoopBlockSet(loops []*cfa.Loop) map[program.BlockID]bool {
	set := make(map[program.BlockID]bool)
	for _, lp := range loops {
		for _, b := range lp.Body {
			set[b] = true
		}
	}
	return set
}
