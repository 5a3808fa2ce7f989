package program

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildValid() *Program {
	p := New("t")
	r1 := p.AddRoutine("a")
	b0 := p.AddBlock(r1, 8)
	b1 := p.AddBlock(r1, 16)
	p.AddArc(b0, b1, ArcFallthrough, 1.0)
	r2 := p.AddRoutine("b")
	c0 := p.AddBlock(r2, 8)
	c1 := p.AddBlock(r2, 8)
	p.SetCall(c0, r1, c1)
	return p
}

func TestNewHasNoSeeds(t *testing.T) {
	p := New("x")
	for c, s := range p.Seeds {
		if s != NoRoutine {
			t.Errorf("seed %d = %d, want NoRoutine", c, s)
		}
	}
}

func TestAddBlockSetsEntry(t *testing.T) {
	p := New("t")
	r := p.AddRoutine("r")
	b0 := p.AddBlock(r, 4)
	p.AddBlock(r, 4)
	if p.Routine(r).Entry != b0 {
		t.Fatalf("entry = %d, want %d", p.Routine(r).Entry, b0)
	}
	if len(p.Routine(r).Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(p.Routine(r).Blocks))
	}
}

func TestValidateOK(t *testing.T) {
	if err := buildValid().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(p *Program)
		wantSub string
	}{
		{"no routines", func(p *Program) { p.Routines = nil }, "no routines"},
		{"empty routine", func(p *Program) { p.AddRoutine("empty") }, "has no blocks"},
		{"bad size", func(p *Program) { p.Blocks[0].Size = 0 }, "non-positive size"},
		{"call and arcs", func(p *Program) {
			p.Blocks[0].HasCall = true
			p.Blocks[0].Call = CallSite{Callee: 0, Cont: NoBlock}
		}, "both a call and out-arcs"},
		{"callee out of range", func(p *Program) { p.Blocks[2].Call.Callee = 99 }, "out of range"},
		{"cont crosses routine", func(p *Program) { p.Blocks[2].Call.Cont = 0 }, "another routine"},
		{"arc out of range", func(p *Program) { p.Blocks[0].Out[0].To = 99 }, "out of range"},
		{"arc crosses routine", func(p *Program) { p.Blocks[0].Out[0].To = 2 }, "crosses routines"},
		{"bad probability", func(p *Program) { p.Blocks[0].Out[0].Prob = 1.5 }, "outside [0,1]"},
		{"prob sum", func(p *Program) { p.Blocks[0].Out[0].Prob = 0.5 }, "sum to"},
		{"seed out of range", func(p *Program) { p.Seeds[0] = 17 }, "out of range"},
		{"link order wrong length", func(p *Program) { p.LinkOrder = []RoutineID{0} }, "link order"},
		{"link order duplicate", func(p *Program) { p.LinkOrder = []RoutineID{0, 0} }, "permutation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := buildValid()
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid program")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestDispatchBlockSkipsProbSumCheck(t *testing.T) {
	p := New("t")
	r := p.AddRoutine("r")
	b0 := p.AddBlock(r, 4)
	b1 := p.AddBlock(r, 4)
	b2 := p.AddBlock(r, 4)
	p.AddArc(b0, b1, ArcBranch, 0.1)
	p.AddArc(b0, b2, ArcBranch, 0.1)
	if err := p.Validate(); err == nil {
		t.Fatal("expected prob-sum failure before dispatch marking")
	}
	p.SetDispatch(b0)
	if err := p.Validate(); err != nil {
		t.Fatalf("dispatch block should skip the sum check: %v", err)
	}
	if p.NumDispatch != 1 {
		t.Fatalf("NumDispatch = %d, want 1", p.NumDispatch)
	}
}

func TestOrderDefaultsToNatural(t *testing.T) {
	p := buildValid()
	order := p.Order()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("Order() = %v, want [0 1]", order)
	}
	p.LinkOrder = []RoutineID{1, 0}
	order = p.Order()
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("Order() = %v, want [1 0]", order)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsReturn(t *testing.T) {
	p := buildValid()
	if !p.Block(1).IsReturn() {
		t.Error("block 1 should be a return block")
	}
	if p.Block(0).IsReturn() {
		t.Error("block 0 has successors; not a return block")
	}
	if p.Block(2).IsReturn() {
		t.Error("block 2 has a call; not a return block")
	}
}

func TestSeedClassString(t *testing.T) {
	want := map[SeedClass]string{
		SeedInterrupt: "Interrupt", SeedPageFault: "PageFault",
		SeedSysCall: "SysCall", SeedOther: "Other",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("SeedClass(%d).String() = %q, want %q", c, c.String(), w)
		}
	}
	if got := SeedClass(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown class string = %q", got)
	}
}

func TestArcKindString(t *testing.T) {
	if ArcFallthrough.String() != "fallthrough" || ArcBranch.String() != "branch" {
		t.Fatal("ArcKind strings wrong")
	}
	if got := ArcKind(7).String(); !strings.Contains(got, "7") {
		t.Errorf("unknown kind string = %q", got)
	}
}

// randomProgram generates a structurally valid random program: chains of
// blocks with optional diamonds and calls to earlier routines.
func randomProgram(rng *rand.Rand) *Program {
	p := New("rand")
	nr := 1 + rng.Intn(6)
	for r := 0; r < nr; r++ {
		id := p.AddRoutine("r")
		prev := p.AddBlock(id, int32(2+2*rng.Intn(20)))
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			b := p.AddBlock(id, int32(2+2*rng.Intn(20)))
			switch {
			case r > 0 && rng.Intn(4) == 0:
				p.SetCall(prev, RoutineID(rng.Intn(r)), b)
			case rng.Intn(3) == 0:
				alt := p.AddBlock(id, 8)
				q := rng.Float64()
				p.AddArc(prev, b, ArcFallthrough, q)
				p.AddArc(prev, alt, ArcBranch, 1-q)
				p.AddArc(alt, b, ArcBranch, 1.0)
			default:
				p.AddArc(prev, b, ArcFallthrough, 1.0)
			}
			prev = b
		}
	}
	return p
}

// TestQuickRandomProgramsValidate property-checks that the construction API
// used throughout the generators always yields programs passing Validate.
func TestQuickRandomProgramsValidate(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProgram(rand.New(rand.NewSource(seed)))
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
