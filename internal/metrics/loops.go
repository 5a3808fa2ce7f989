package metrics

import (
	"sort"

	"oslayout/internal/cfa"
	"oslayout/internal/core"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/trace"
)

// LoopFractions is one row of the paper's Table 3: how much of the operating
// system's execution lives in loops that do not call procedures.
type LoopFractions struct {
	// DynFrac is the fraction of dynamic OS instructions inside call-free
	// loops.
	DynFrac float64
	// StaticExecFrac is the static size of those loops over the executed
	// OS code size.
	StaticExecFrac float64
	// StaticFrac is the same over the total OS code size.
	StaticFrac float64
}

// CallFreeLoopFractions computes Table 3 for program p under profile prof.
func CallFreeLoopFractions(p *program.Program, prof *profile.Profile, loops []cfa.Loop) LoopFractions {
	inCallFree := make(map[program.BlockID]bool)
	for i := range loops {
		if loops[i].CallsRoutines {
			continue
		}
		for _, b := range loops[i].Body {
			inCallFree[b] = true
		}
	}
	var dynLoop, dynAll float64
	var statLoop, statExec, statAll float64
	for i := range p.Blocks {
		b := &p.Blocks[i]
		w := prof.Block[i]
		refs := float64(trace.RefsOf(b.Size))
		dynAll += float64(w) * refs
		statAll += float64(b.Size)
		if w > 0 {
			statExec += float64(b.Size)
		}
		if inCallFree[program.BlockID(i)] && w > 0 {
			dynLoop += float64(w) * refs
			statLoop += float64(b.Size)
		}
	}
	f := LoopFractions{}
	if dynAll > 0 {
		f.DynFrac = dynLoop / dynAll
	}
	if statExec > 0 {
		f.StaticExecFrac = statLoop / statExec
	}
	if statAll > 0 {
		f.StaticFrac = statLoop / statAll
	}
	return f
}

// LoopBehavior characterises one executed loop for Figures 4 and 5.
type LoopBehavior struct {
	Routine program.RoutineID
	// Trips is the measured mean iterations per invocation.
	Trips float64
	// Size is the static size of the executed part of the loop body; for
	// loops with calls it includes the executed part of the callee closure
	// (the Figure 5 definition).
	Size int64
	// CallsRoutines distinguishes Figure 4 (false) from Figure 5 (true).
	CallsRoutines bool
}

// LoopBehaviors returns the loops of program p that profile prof records
// as executed, split into the paper's two categories, each sorted by trips.
func LoopBehaviors(p *program.Program, prof *profile.Profile, loops []cfa.Loop) (callFree, withCalls []LoopBehavior) {
	cg := cfa.CallGraph(p)
	for i := range loops {
		lp := &loops[i]
		if prof.Block[lp.Header] == 0 {
			continue
		}
		lb := LoopBehavior{
			Routine:       lp.Routine,
			Trips:         core.LoopTrips(p, prof, lp),
			CallsRoutines: lp.CallsRoutines,
		}
		if lp.CallsRoutines {
			lb.Size = cfa.ExecutedSizeWithCallees(p, prof.Block, cg, lp)
			withCalls = append(withCalls, lb)
		} else {
			for _, b := range lp.Body {
				if prof.Block[b] > 0 {
					lb.Size += int64(p.Block(b).Size)
				}
			}
			callFree = append(callFree, lb)
		}
	}
	byTrips := func(s []LoopBehavior) {
		sort.Slice(s, func(i, j int) bool { return s[i].Trips < s[j].Trips })
	}
	byTrips(callFree)
	byTrips(withCalls)
	return callFree, withCalls
}

// Quantile returns the q-quantile (0..1) of the values selected by f over
// the loops. It returns 0 for an empty slice.
func Quantile(loops []LoopBehavior, q float64, f func(LoopBehavior) float64) float64 {
	if len(loops) == 0 {
		return 0
	}
	vals := make([]float64, len(loops))
	for i, lb := range loops {
		vals[i] = f(lb)
	}
	sort.Float64s(vals)
	idx := int(q * float64(len(vals)-1))
	return vals[idx]
}

// Histogram buckets values into the given upper bounds (last bucket is
// overflow) and returns counts.
func Histogram(values []float64, bounds []float64) []int {
	counts := make([]int, len(bounds)+1)
	for _, v := range values {
		i := len(bounds)
		for j, b := range bounds {
			if v < b {
				i = j
				break
			}
		}
		counts[i]++
	}
	return counts
}

// Values extracts a metric from loop behaviours.
func Values(loops []LoopBehavior, f func(LoopBehavior) float64) []float64 {
	out := make([]float64, len(loops))
	for i, lb := range loops {
		out[i] = f(lb)
	}
	return out
}
