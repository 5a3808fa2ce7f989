package program

import (
	"strings"
	"testing"
)

// dotFixture returns a small program plus per-block weights for it.
func dotFixture() (*Program, []uint64) {
	p := New("fix")
	a := p.AddRoutine("alpha")
	a0 := p.AddBlock(a, 8)
	a1 := p.AddBlock(a, 8)
	a2 := p.AddBlock(a, 8)
	p.AddArc(a0, a1, ArcFallthrough, 0.9)
	p.AddArc(a0, a2, ArcBranch, 0.1)
	p.AddArc(a1, a2, ArcFallthrough, 1.0)
	b := p.AddRoutine("beta")
	p.AddBlock(b, 8)
	c0 := p.AddBlock(a, 8) // extra caller block in alpha calling beta
	_ = c0
	p.Blocks[a2].Out = nil
	p.SetCall(a2, b, c0)
	w := make([]uint64, p.NumBlocks())
	w[a0] = 10
	w[a1] = 9
	return p, w
}

func TestWriteDotAllRoutines(t *testing.T) {
	p, w := dotFixture()
	var sb strings.Builder
	if err := p.WriteDot(&sb, DotOptions{Weights: w}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph \"fix\"", "cluster_0", "label=\"alpha\"", "label=\"beta\"",
		"n0 -> n1", "0.90", "style=dashed", "label=ret", "w=10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q\n%s", want, out)
		}
	}
}

func TestWriteDotRestrictedWithStub(t *testing.T) {
	p, _ := dotFixture()
	var sb strings.Builder
	if err := p.WriteDot(&sb, DotOptions{Routines: []RoutineID{0}}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "cluster_1") {
		t.Error("excluded routine rendered as a cluster")
	}
	if !strings.Contains(out, "r1 [label=\"beta\"") {
		t.Errorf("call to excluded routine should render a stub:\n%s", out)
	}
}

func TestWriteDotHideUnexecuted(t *testing.T) {
	p, w := dotFixture()
	var sb strings.Builder
	if err := p.WriteDot(&sb, DotOptions{Weights: w, HideUnexecuted: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "n2 ") || strings.Contains(out, "n2 [") {
		t.Errorf("unexecuted block rendered:\n%s", out)
	}
	if !strings.Contains(out, "n0 [") {
		t.Error("executed block missing")
	}
}

func TestWriteDotRejectsBadRoutine(t *testing.T) {
	p, w := dotFixture()
	var sb strings.Builder
	if err := p.WriteDot(&sb, DotOptions{Routines: []RoutineID{99}}); err == nil {
		t.Fatal("out-of-range routine accepted")
	}
	if err := p.WriteDot(&sb, DotOptions{Weights: w[1:]}); err == nil {
		t.Fatal("weights of the wrong length accepted")
	}
}
