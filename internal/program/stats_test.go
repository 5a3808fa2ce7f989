package program_test

import (
	"testing"

	"oslayout/internal/profile"
	"oslayout/internal/program"
)

// TestCodeSizeAndExecutedStats checks the static code size of a program and
// the executed-code statistics a profile of it reports.
func TestCodeSizeAndExecutedStats(t *testing.T) {
	p := program.New("t")
	r1 := p.AddRoutine("a")
	b0 := p.AddBlock(r1, 8)
	b1 := p.AddBlock(r1, 16)
	p.AddArc(b0, b1, program.ArcFallthrough, 1.0)
	r2 := p.AddRoutine("b")
	c0 := p.AddBlock(r2, 8)
	c1 := p.AddBlock(r2, 8)
	p.SetCall(c0, r1, c1)
	if got := p.CodeSize(); got != 8+16+8+8 {
		t.Fatalf("CodeSize = %d, want 40", got)
	}
	prof := profile.New(p)
	prof.Block[b0] = 5
	prof.Block[c0] = 1
	if got := prof.ExecutedCodeSize(p); got != 8+8 {
		t.Fatalf("ExecutedCodeSize = %d, want 16", got)
	}
	if got := prof.ExecutedBlocks(); got != 2 {
		t.Fatalf("ExecutedBlocks = %d, want 2", got)
	}
	if got := prof.ExecutedRoutines(p); got != 2 {
		t.Fatalf("ExecutedRoutines = %d, want 2", got)
	}
	if got := prof.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
}
