package chlayout

import (
	"testing"

	"oslayout/internal/kernelgen"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/progtest"
)

// profiledDiamond builds a diamond routine where the branch side is hot and
// the fallthrough side cold, to exercise trace selection.
func profiledDiamond() (*program.Program, *profile.Profile, program.RoutineID) {
	p, r := progtest.Diamond(0.1)
	prof := profile.New(p)
	// entry=0, a=1 (cold side, prob .1), b=2 (hot side), join=3, exit=4
	weights := []uint64{100, 10, 90, 100, 100}
	for i, w := range weights {
		prof.Block[i] = w
	}
	// Arc weights proportional.
	prof.Arc[0][0] = 10 // entry->a
	prof.Arc[0][1] = 90 // entry->b
	prof.Arc[1][0] = 10
	prof.Arc[2][0] = 90
	prof.Arc[3][0] = 100
	return p, prof, r
}

func TestOrderRoutineBlocksFollowsHotTrace(t *testing.T) {
	p, prof, r := profiledDiamond()
	order := OrderRoutineBlocks(p, prof, r)
	if len(order) != 5 {
		t.Fatalf("order has %d blocks, want 5", len(order))
	}
	// The main trace must be entry -> b -> join -> exit, with the cold
	// side block a placed after it.
	want := []program.BlockID{0, 2, 3, 4, 1}
	for i, b := range want {
		if order[i] != b {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestOrderRoutineBlocksUnexecutedLast(t *testing.T) {
	p, r := progtest.Linear(4, 8)
	prof := profile.New(p)
	// Only the first two blocks executed.
	prof.Block[0] = 10
	prof.Block[1] = 10
	prof.Arc[0][0] = 10
	order := OrderRoutineBlocks(p, prof, r)
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("hot prefix misordered: %v", order)
	}
	if order[2] != 2 || order[3] != 3 {
		t.Fatalf("cold blocks should keep static order at the end: %v", order)
	}
}

func TestOrderRoutineBlocksEntryFirst(t *testing.T) {
	// Even if another block is hotter (inside a loop), the entry leads.
	p, r, header, _, _ := progtest.LoopProgram(0.9)
	prof := profile.New(p)
	prof.Block[0] = 10 // entry
	prof.Block[header] = 100
	order := OrderRoutineBlocks(p, prof, r)
	if order[0] != p.Routine(r).Entry {
		t.Fatalf("entry not first: %v", order)
	}
}

func TestOrderRoutinesCalleeFollowsCaller(t *testing.T) {
	p, caller, leaf := progtest.CallPair()
	prof := profile.New(p)
	// Caller invokes leaf heavily.
	callBlock := p.Routine(caller).Blocks[1]
	prof.Call[callBlock] = 500
	prof.Block[callBlock] = 500
	prof.RoutineInv[caller] = 10
	prof.RoutineInv[leaf] = 500
	order := OrderRoutines(p, prof)
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != caller || order[1] != leaf {
		t.Fatalf("order = %v, want caller then leaf", order)
	}
}

func TestOrderRoutinesColdLast(t *testing.T) {
	p, caller, leaf := progtest.CallPair()
	cold := p.AddRoutine("cold")
	p.AddBlock(cold, 8)
	prof := profile.New(p)
	prof.Call[p.Routine(caller).Blocks[1]] = 5
	prof.RoutineInv[caller] = 5
	prof.RoutineInv[leaf] = 5
	order := OrderRoutines(p, prof)
	if order[len(order)-1] != cold {
		t.Fatalf("cold routine not last: %v", order)
	}
}

func TestNewLayoutValidOnKernel(t *testing.T) {
	k := kernelgen.Build(kernelgen.Config{Seed: 2, TotalCodeBytes: 200 << 10, PoolScale: 0.3})
	// Give it a synthetic profile: mark a spread of blocks executed.
	prof := profile.New(k.Prog)
	for i := range k.Prog.Blocks {
		if i%3 == 0 {
			prof.Block[i] = uint64(1 + i%100)
		}
	}
	l := New(k.Prog, prof, 0)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Name != "C-H" {
		t.Fatalf("layout name %q", l.Name)
	}
	// Every block must be placed (dense image, no block lost).
	if int64(l.Extent()) < k.Prog.CodeSize() {
		t.Fatalf("extent %d below code size %d: blocks lost", l.Extent(), k.Prog.CodeSize())
	}
}
