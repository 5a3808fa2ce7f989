// Package progtest provides hand-built control-flow-graph fixtures shared by
// the test suites of the analysis, layout and simulation packages. The
// fixtures are small enough to verify behaviour by hand, including a
// faithful encoding of the paper's Figure 9 example (the push_hrtime /
// read_hrc / check_curtimer / update_hrtimer timer routines).
package progtest

import (
	"oslayout/internal/program"
)

// Linear builds a program with a single routine of n sequential blocks of
// the given size.
func Linear(n int, size int32) (*program.Program, program.RoutineID) {
	p := program.New("linear")
	r := p.AddRoutine("straight")
	prev := p.AddBlock(r, size)
	for i := 1; i < n; i++ {
		b := p.AddBlock(r, size)
		p.AddArc(prev, b, program.ArcFallthrough, 1.0)
		prev = b
	}
	return p, r
}

// Diamond builds one routine shaped
//
//	entry -> a (p) / b (1-p) -> join -> exit
func Diamond(pTaken float64) (*program.Program, program.RoutineID) {
	p := program.New("diamond")
	r := p.AddRoutine("diamond")
	entry := p.AddBlock(r, 8)
	a := p.AddBlock(r, 8)
	b := p.AddBlock(r, 8)
	join := p.AddBlock(r, 8)
	exit := p.AddBlock(r, 8)
	p.AddArc(entry, a, program.ArcFallthrough, pTaken)
	p.AddArc(entry, b, program.ArcBranch, 1-pTaken)
	p.AddArc(a, join, program.ArcFallthrough, 1.0)
	p.AddArc(b, join, program.ArcBranch, 1.0)
	p.AddArc(join, exit, program.ArcFallthrough, 1.0)
	return p, r
}

// LoopProgram builds one routine with a natural loop:
//
//	entry -> header -> body -> latch -(back p)-> header
//	                          -(exit 1-p)-> exit
//
// It returns the program, routine and the loop's blocks.
func LoopProgram(back float64) (p *program.Program, r program.RoutineID, header, latch, exit program.BlockID) {
	p = program.New("loop")
	r = p.AddRoutine("looper")
	entry := p.AddBlock(r, 8)
	header = p.AddBlock(r, 8)
	body := p.AddBlock(r, 8)
	latch = p.AddBlock(r, 8)
	exit = p.AddBlock(r, 8)
	p.AddArc(entry, header, program.ArcFallthrough, 1.0)
	p.AddArc(header, body, program.ArcFallthrough, 1.0)
	p.AddArc(body, latch, program.ArcFallthrough, 1.0)
	p.AddArc(latch, header, program.ArcBranch, back)
	p.AddArc(latch, exit, program.ArcFallthrough, 1-back)
	return p, r, header, latch, exit
}

// CallPair builds a caller routine whose middle block calls a leaf routine:
//
//	caller: c0 -> c1(call leaf, cont c2) ; c2 -> c3(return)
//	leaf:   l0 -> l1(return)
func CallPair() (p *program.Program, caller, leaf program.RoutineID) {
	p = program.New("callpair")
	leaf = p.AddRoutine("leaf")
	l0 := p.AddBlock(leaf, 8)
	l1 := p.AddBlock(leaf, 8)
	p.AddArc(l0, l1, program.ArcFallthrough, 1.0)

	caller = p.AddRoutine("caller")
	c0 := p.AddBlock(caller, 8)
	c1 := p.AddBlock(caller, 8)
	c2 := p.AddBlock(caller, 8)
	c3 := p.AddBlock(caller, 8)
	p.AddArc(c0, c1, program.ArcFallthrough, 1.0)
	p.SetCall(c1, leaf, c2)
	p.AddArc(c2, c3, program.ArcFallthrough, 1.0)
	return p, caller, leaf
}

// Figure9 encodes the paper's Figure 9 basic block flow graph: the four
// timer routines with the node and arc weights shown in the figure (weights
// here are integer counts scaled so the figure's node fractions hold with a
// total of 10,000).
//
// The returned map gives access to blocks by the paper's names, e.g.
// "push0" for node 0 of push_hrtime, "read2" for node 2 of read_hrc.
//
// The weights are the four count slices of a profile.Profile (this package
// cannot import profile, whose own tests use these fixtures); tests build
// the profile as &profile.Profile{Block: f.Block, Arc: f.Arc, Call: f.Call,
// RoutineInv: f.RoutineInv}.
type Figure9Fixture struct {
	Prog   *program.Program
	Push   program.RoutineID
	Read   program.RoutineID
	Check  program.RoutineID
	Update program.RoutineID
	Node   map[string]program.BlockID

	// Block, Arc, Call and RoutineInv are the figure's execution counts,
	// shaped like profile.Profile's fields of the same names.
	Block      []uint64
	Arc        [][]uint64
	Call       []uint64
	RoutineInv []uint64
}

// Figure9 builds the fixture. Shapes and weights follow the paper's chart:
//
//	push_hrtime: 0 →1.0→ 1 →1.0→ 4 →1.0→ 8(call read_hrc) → 9 → 10 → 11 →
//	  12(call check_curtimer) → 13(call update_hrtimer) → 14 → 15/16 → 17 →
//	  18 → 19(return); rare nodes 5 and 7 hang off 1 and 4.
//	read_hrc: 0 → 1 → 2 → 3(return).
//	check_curtimer: 0 → 1 → 2 → 5(return), rare 3, 4.
//	update_hrtimer: 0(return).
func Figure9() *Figure9Fixture {
	p := program.New("figure9")
	f := &Figure9Fixture{Prog: p, Node: map[string]program.BlockID{}}
	f.Push = p.AddRoutine("push_hrtime")
	f.Read = p.AddRoutine("read_hrc")
	f.Check = p.AddRoutine("check_curtimer")
	f.Update = p.AddRoutine("update_hrtimer")

	add := func(r program.RoutineID, name string, weight uint64) program.BlockID {
		b := p.AddBlock(r, 16)
		f.Block = append(f.Block, weight)
		f.Arc = append(f.Arc, nil)
		f.Call = append(f.Call, 0)
		f.Node[name] = b
		return b
	}
	// Node weights: hot path executes 1000 times; the rare diamond at 14
	// splits 810/190 between 15 and 16; 5 and 7 execute 10 times.
	hot := uint64(1000)
	push := map[string]uint64{
		"push0": hot, "push1": hot, "push4": hot, "push5": 10, "push7": 10,
		"push8": hot, "push9": hot, "push10": hot, "push11": hot,
		"push12": hot, "push13": hot, "push14": hot,
		"push15": 810, "push16": 190, "push17": hot, "push18": hot, "push19": hot,
	}
	order := []string{"push0", "push1", "push4", "push5", "push7", "push8",
		"push9", "push10", "push11", "push12", "push13", "push14",
		"push15", "push16", "push17", "push18", "push19"}
	for _, n := range order {
		add(f.Push, n, push[n])
	}
	for i, w := range []uint64{hot, hot, hot, hot} {
		add(f.Read, nodeName("read", i), w)
	}
	for i, w := range []uint64{hot, hot, hot, 5, 5, hot} {
		add(f.Check, nodeName("check", i), w)
	}
	add(f.Update, "update0", hot)

	arc := func(from, to string, w uint64, kind program.ArcKind) {
		fb := f.Node[from]
		p.AddArc(fb, f.Node[to], kind, 0)
		f.Arc[fb] = append(f.Arc[fb], w)
	}
	call := func(from string, callee program.RoutineID, cont string, w uint64) {
		p.SetCall(f.Node[from], callee, f.Node[cont])
		f.Call[f.Node[from]] = w
	}

	arc("push0", "push1", 990, program.ArcFallthrough)
	arc("push0", "push5", 10, program.ArcBranch)
	arc("push5", "push7", 10, program.ArcFallthrough)
	arc("push7", "push8", 10, program.ArcBranch)
	arc("push1", "push4", 1000, program.ArcFallthrough)
	arc("push4", "push8", 990, program.ArcFallthrough)
	call("push8", f.Read, "push9", 1000)
	arc("push9", "push10", 1000, program.ArcFallthrough)
	arc("push10", "push11", 1000, program.ArcFallthrough)
	arc("push11", "push12", 1000, program.ArcFallthrough)
	call("push12", f.Check, "push13", 1000)
	call("push13", f.Update, "push14", 1000)
	arc("push14", "push15", 810, program.ArcFallthrough)
	arc("push14", "push16", 190, program.ArcBranch)
	arc("push15", "push17", 810, program.ArcFallthrough)
	arc("push16", "push17", 190, program.ArcBranch)
	arc("push17", "push18", 1000, program.ArcFallthrough)
	arc("push18", "push19", 1000, program.ArcFallthrough)

	arc("read0", "read1", 1000, program.ArcFallthrough)
	arc("read1", "read2", 1000, program.ArcFallthrough)
	arc("read2", "read3", 1000, program.ArcFallthrough)

	arc("check0", "check1", 1000, program.ArcFallthrough)
	arc("check1", "check2", 995, program.ArcFallthrough)
	arc("check1", "check3", 5, program.ArcBranch)
	arc("check3", "check4", 5, program.ArcFallthrough)
	arc("check4", "check5", 5, program.ArcBranch)
	arc("check2", "check5", 995, program.ArcFallthrough)

	// Ground-truth probabilities for walker-based tests, proportional to
	// the arc weights so Validate passes.
	normalizeProbs(p, f.Arc)

	f.RoutineInv = []uint64{1000, 1000, 1000, 1000}
	return f
}

func nodeName(prefix string, i int) string {
	const digits = "0123456789"
	if i < 10 {
		return prefix + digits[i:i+1]
	}
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// normalizeProbs rewrites every block's arc probabilities proportionally to
// the arc weights so Validate passes.
func normalizeProbs(p *program.Program, arcW [][]uint64) {
	for i := range p.Blocks {
		b := &p.Blocks[i]
		if len(b.Out) == 0 {
			continue
		}
		var sum float64
		for _, w := range arcW[i] {
			sum += float64(w)
		}
		if sum == 0 {
			uniform := 1.0 / float64(len(b.Out))
			for j := range b.Out {
				b.Out[j].Prob = uniform
			}
			continue
		}
		for j := range b.Out {
			b.Out[j].Prob = float64(arcW[i][j]) / sum
		}
	}
}
