// Package layout represents code placements: the mapping from every basic
// block of a program to a memory address. The Base layout reproduces the
// original ("compiler/link order") placement; the optimising algorithms in
// internal/chlayout and internal/core produce alternatives. The cache
// simulator consumes layouts to turn block executions into line accesses.
package layout

import (
	"fmt"
	"sort"

	"oslayout/internal/profile"
	"oslayout/internal/program"
)

// Align is the instruction alignment in bytes: blocks are placed on even
// addresses (the paper's 68020-family code is 2-byte aligned).
const Align = 2

// Layout maps each basic block of a program to its start address.
type Layout struct {
	Name string
	Prog *program.Program
	// Base is the image's base address; all blocks are placed at or above.
	Base uint64
	// Addr[b] is the start address of block b.
	Addr []uint64
}

// New returns a layout with no block placed (all addresses zero; callers
// must place every block before use).
func New(name string, p *program.Program, base uint64) *Layout {
	return &Layout{Name: name, Prog: p, Base: base, Addr: make([]uint64, p.NumBlocks())}
}

// NewBase builds the original layout: routines in the program's link order,
// blocks in their static order within each routine, densely packed from
// base.
func NewBase(p *program.Program, base uint64) *Layout {
	l := New("Base", p, base)
	addr := base
	for _, r := range p.Order() {
		for _, b := range p.Routines[r].Blocks {
			l.Addr[b] = addr
			addr += alignUp(uint64(p.Block(b).Size))
		}
	}
	return l
}

// alignUp rounds a size up to the instruction alignment.
func alignUp(n uint64) uint64 { return (n + Align - 1) &^ (Align - 1) }

// Place assigns block b to address a.
func (l *Layout) Place(b program.BlockID, a uint64) { l.Addr[b] = a }

// BlockEnd returns one past the last byte of block b.
func (l *Layout) BlockEnd(b program.BlockID) uint64 {
	return l.Addr[b] + uint64(l.Prog.Block(b).Size)
}

// End returns one past the highest placed byte.
func (l *Layout) End() uint64 {
	var end uint64
	for b := range l.Addr {
		if e := l.BlockEnd(program.BlockID(b)); e > end {
			end = e
		}
	}
	return end
}

// Extent returns the image size in bytes (End minus Base).
func (l *Layout) Extent() uint64 { return l.End() - l.Base }

// Validate checks that every block is placed at or above the base, on an
// aligned address, and that no two blocks overlap.
func (l *Layout) Validate() error {
	type span struct {
		start, end uint64
		b          program.BlockID
	}
	spans := make([]span, 0, len(l.Addr))
	for b := range l.Addr {
		id := program.BlockID(b)
		a := l.Addr[b]
		if a < l.Base {
			return fmt.Errorf("layout %s: block %d at %#x below base %#x", l.Name, b, a, l.Base)
		}
		if a%Align != 0 {
			return fmt.Errorf("layout %s: block %d at %#x not %d-byte aligned", l.Name, b, a, Align)
		}
		spans = append(spans, span{a, l.BlockEnd(id), id})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for i := 1; i < len(spans); i++ {
		if spans[i].start < spans[i-1].end {
			return fmt.Errorf("layout %s: blocks %d [%#x,%#x) and %d [%#x,%#x) overlap",
				l.Name, spans[i-1].b, spans[i-1].start, spans[i-1].end,
				spans[i].b, spans[i].start, spans[i].end)
		}
	}
	return nil
}

// Builder packs blocks sequentially from a cursor, for algorithms that emit
// placement runs.
type Builder struct {
	L    *Layout
	next uint64
}

// NewBuilder returns a builder over l starting at the layout base.
func NewBuilder(l *Layout) *Builder { return &Builder{L: l, next: l.Base} }

// Cursor returns the next placement address.
func (pb *Builder) Cursor() uint64 { return pb.next }

// Seek moves the cursor to addr.
func (pb *Builder) Seek(addr uint64) { pb.next = alignUp(addr) }

// Append places block b at the cursor and advances it.
func (pb *Builder) Append(b program.BlockID) {
	pb.L.Place(b, pb.next)
	pb.next += alignUp(uint64(pb.L.Prog.Block(b).Size))
}

// AppendAll places the blocks consecutively from the cursor.
func (pb *Builder) AppendAll(blocks []program.BlockID) {
	for _, b := range blocks {
		pb.Append(b)
	}
}

// Fits reports whether a block of the given size fits between the cursor and
// limit.
func (pb *Builder) Fits(size int32, limit uint64) bool {
	return pb.next+alignUp(uint64(size)) <= limit
}

// Fragments returns, for each routine with at least one qualifying block,
// into how many runs the layout splits it: the number of maximal groups of
// the routine's blocks that are consecutive in global address order (i.e.
// with no other routine's qualifying block placed between them). A count
// above 1 means the layout interleaved the routine with other routines —
// the signature of the paper's cross-routine sequences, where "a sequence
// may contain a few basic blocks of the caller routine, then the most
// important basic blocks of the callee routine, and then a few basic blocks
// more from the caller routine". A non-nil prof restricts the analysis to
// the blocks it counts as executed; nil analyses every block.
func (l *Layout) Fragments(prof *profile.Profile) map[program.RoutineID]int {
	var blocks []program.BlockID
	for b := range l.Prog.Blocks {
		if prof != nil && prof.Block[b] == 0 {
			continue
		}
		blocks = append(blocks, program.BlockID(b))
	}
	sort.Slice(blocks, func(i, j int) bool { return l.Addr[blocks[i]] < l.Addr[blocks[j]] })
	out := make(map[program.RoutineID]int)
	prev := program.NoRoutine
	for _, b := range blocks {
		r := l.Prog.Block(b).Routine
		if r != prev {
			out[r]++
			prev = r
		}
	}
	return out
}
