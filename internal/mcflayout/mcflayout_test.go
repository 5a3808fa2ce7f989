package mcflayout

import (
	"testing"

	"oslayout/internal/kernelgen"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/progtest"
	"oslayout/internal/workload"
)

func TestOrderRoutinesCalleeFollowsCaller(t *testing.T) {
	p, caller, leaf := progtest.CallPair()
	prof := profile.New(p)
	callBlock := p.Routine(caller).Blocks[1]
	prof.Call[callBlock] = 100
	for _, r := range []program.RoutineID{caller, leaf} {
		for _, b := range p.Routine(r).Blocks {
			prof.Block[b] = 1
		}
	}
	prof.RoutineInv[caller] = 10
	prof.RoutineInv[leaf] = 100
	order := OrderRoutines(p, prof)
	// DFS from the hottest root: leaf is hottest by invocations, but the
	// caller's DFS pulls the leaf immediately after it when visited first…
	// here leaf (100 invocations) roots first and has no callees, then
	// caller follows.
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	// Whatever the root order, caller and callee must be adjacent.
	if !((order[0] == caller && order[1] == leaf) || (order[0] == leaf && order[1] == caller)) {
		t.Fatalf("order = %v", order)
	}
}

func TestOrderRoutinesSeedsLead(t *testing.T) {
	p, caller, _ := progtest.CallPair()
	prof := profile.New(p)
	for _, b := range p.Routine(caller).Blocks {
		prof.Block[b] = 1
	}
	prof.Call[p.Routine(caller).Blocks[1]] = 1
	for _, b := range p.Routine(0).Blocks {
		prof.Block[b] = 1
	}
	p.Seeds[program.SeedInterrupt] = caller
	order := OrderRoutines(p, prof)
	if order[0] != caller {
		t.Fatalf("seed routine should lead the image: %v", order)
	}
}

func TestNewMovesColdCodeToEnd(t *testing.T) {
	f := progtest.Figure9()
	prof := &profile.Profile{Block: f.Block, Arc: f.Arc, Call: f.Call, RoutineInv: f.RoutineInv}
	// Mark check3/check4 (rare) as never executed for this test.
	prof.Block[f.Node["check3"]] = 0
	prof.Block[f.Node["check4"]] = 0
	l := New(f.Prog, prof, 0)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	coldStart := l.Addr[f.Node["check3"]]
	for name, b := range f.Node {
		if prof.Block[b] > 0 && l.Addr[b] >= coldStart {
			t.Fatalf("hot block %s at %#x beyond cold block at %#x", name, l.Addr[b], coldStart)
		}
	}
}

func TestNewCalleesAdjacent(t *testing.T) {
	f := progtest.Figure9()
	prof := &profile.Profile{Block: f.Block, Arc: f.Arc, Call: f.Call, RoutineInv: f.RoutineInv}
	l := New(f.Prog, prof, 0)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// push_hrtime's DFS should place read_hrc (its hottest callee) right
	// after push_hrtime's blocks: the distance between push_hrtime's entry
	// and read_hrc's entry must be below push_hrtime's hot size plus slack.
	pushEntry := l.Addr[f.Node["push0"]]
	readEntry := l.Addr[f.Node["read0"]]
	if readEntry < pushEntry {
		t.Fatalf("callee before caller: %#x < %#x", readEntry, pushEntry)
	}
	if readEntry-pushEntry > 600 {
		t.Fatalf("read_hrc %d bytes after push_hrtime; DFS should keep them close",
			readEntry-pushEntry)
	}
}

func TestNewOnKernelBeatsBaseDFSOrdering(t *testing.T) {
	k := kernelgen.Build(kernelgen.Config{Seed: 6, TotalCodeBytes: 250 << 10, PoolScale: 0.3})
	tr, _, err := workload.Generate(k, workload.Shell(), workload.Options{Seed: 2, OSRefs: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := profile.FromTrace(tr)
	l := New(k.Prog, prof, 0)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// The hot image (executed blocks) must be dense at the front: all
	// executed blocks before all cold blocks.
	var maxHot, minCold uint64
	minCold = ^uint64(0)
	for b := range k.Prog.Blocks {
		if prof.Block[b] > 0 {
			if l.Addr[b] > maxHot {
				maxHot = l.Addr[b]
			}
		} else if l.Addr[b] < minCold {
			minCold = l.Addr[b]
		}
	}
	if maxHot >= minCold {
		t.Fatalf("hot block at %#x beyond first cold block at %#x", maxHot, minCold)
	}
}
