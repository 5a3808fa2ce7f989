package layout

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/progtest"
)

func TestNewBasePacksDensely(t *testing.T) {
	p, _ := progtest.Linear(3, 10)
	l := NewBase(p, 0x1000)
	// 10-byte blocks align to 10 (already even).
	want := []uint64{0x1000, 0x100a, 0x1014}
	for b, w := range want {
		if l.Addr[b] != w {
			t.Errorf("block %d at %#x, want %#x", b, l.Addr[b], w)
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Extent() != 30 {
		t.Fatalf("extent = %d, want 30", l.Extent())
	}
}

func TestNewBaseAlignsOddSizes(t *testing.T) {
	p := program.New("odd")
	r := p.AddRoutine("r")
	p.AddBlock(r, 7)
	p.AddBlock(r, 5)
	l := NewBase(p, 0)
	if l.Addr[1] != 8 {
		t.Fatalf("second block at %d, want 8 (7 rounded up)", l.Addr[1])
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewBaseHonoursLinkOrder(t *testing.T) {
	p, _, _ := progtest.CallPair() // leaf declared first, then caller
	p.LinkOrder = []program.RoutineID{1, 0}
	l := NewBase(p, 0)
	callerEntry := p.Routine(1).Entry
	leafEntry := p.Routine(0).Entry
	if l.Addr[callerEntry] != 0 {
		t.Fatalf("caller should be first under link order, at %d", l.Addr[callerEntry])
	}
	if l.Addr[leafEntry] <= l.Addr[callerEntry] {
		t.Fatal("leaf should follow caller")
	}
}

func TestValidateDetectsOverlap(t *testing.T) {
	p, _ := progtest.Linear(2, 8)
	l := NewBase(p, 0)
	l.Place(1, 4) // overlaps block 0 at [0,8)
	if err := l.Validate(); err == nil {
		t.Fatal("overlap not detected")
	}
}

func TestValidateDetectsBelowBaseAndMisalignment(t *testing.T) {
	p, _ := progtest.Linear(2, 8)
	l := NewBase(p, 0x100)
	l.Place(0, 0x50)
	if err := l.Validate(); err == nil {
		t.Fatal("below-base placement not detected")
	}
	l = NewBase(p, 0)
	l.Place(1, 9)
	if err := l.Validate(); err == nil {
		t.Fatal("misalignment not detected")
	}
}

func TestBuilderSeekAppendFits(t *testing.T) {
	p, _ := progtest.Linear(3, 8)
	l := New("b", p, 0)
	pb := NewBuilder(l)
	pb.Append(0)
	if pb.Cursor() != 8 {
		t.Fatalf("cursor = %d, want 8", pb.Cursor())
	}
	pb.Seek(31) // aligns up to 32
	if pb.Cursor() != 32 {
		t.Fatalf("cursor = %d, want 32 after aligned seek", pb.Cursor())
	}
	if !pb.Fits(8, 40) || pb.Fits(10, 40) {
		t.Fatal("Fits miscomputed")
	}
	pb.AppendAll([]program.BlockID{1, 2})
	if l.Addr[1] != 32 || l.Addr[2] != 40 {
		t.Fatalf("AppendAll placed at %d/%d", l.Addr[1], l.Addr[2])
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomPlacementValidate property-checks that any placement of
// blocks at distinct non-overlapping aligned slots validates, and that
// swapping two blocks into overlap is always caught.
func TestQuickRandomPlacementValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		p := program.New("q")
		r := p.AddRoutine("r")
		for i := 0; i < n; i++ {
			p.AddBlock(r, int32(2+2*rng.Intn(16)))
		}
		l := New("q", p, 0)
		// Place blocks in a random permutation, packed with random gaps.
		perm := rng.Perm(n)
		addr := uint64(0)
		for _, b := range perm {
			addr += uint64(2 * rng.Intn(8))
			l.Place(program.BlockID(b), addr)
			addr += uint64(p.Block(program.BlockID(b)).Size+1) &^ 1
		}
		if l.Validate() != nil {
			return false
		}
		// Force an overlap.
		victim := program.BlockID(perm[rng.Intn(n)])
		other := program.BlockID(perm[rng.Intn(n)])
		if victim == other {
			return true
		}
		l.Place(victim, l.Addr[other])
		return l.Validate() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFragments(t *testing.T) {
	// Two routines; routine B's block placed between routine A's blocks
	// splits A into two runs.
	p, caller, leaf := progtest.CallPair()
	prof := profile.New(p)
	for i := range prof.Block {
		prof.Block[i] = 1
	}
	l := New("f", p, 0)
	// leaf blocks 0,1; caller blocks 2..5. Interleave: 2, 3, 0, 1, 4, 5.
	for i, b := range []program.BlockID{2, 3, 0, 1, 4, 5} {
		l.Place(b, uint64(i*8))
	}
	frags := l.Fragments(prof)
	if frags[caller] != 2 {
		t.Fatalf("caller fragments = %d, want 2 (split by the inlined leaf)", frags[caller])
	}
	if frags[leaf] != 1 {
		t.Fatalf("leaf fragments = %d, want 1", frags[leaf])
	}
	// Gaps from a routine's own unexecuted blocks do not split it: drop
	// the leaf blocks from the executed set; the caller becomes one run.
	prof.Block[0] = 0
	prof.Block[1] = 0
	frags = l.Fragments(prof)
	if frags[caller] != 1 {
		t.Fatalf("caller fragments = %d, want 1 once the leaf is cold", frags[caller])
	}
	if _, ok := frags[leaf]; ok {
		t.Fatal("cold leaf should not appear under a profile")
	}
	// Without a profile the leaf splits the caller again.
	frags = l.Fragments(nil)
	if frags[caller] != 2 || frags[leaf] != 1 {
		t.Fatalf("all-blocks fragments = %v", frags)
	}
}
