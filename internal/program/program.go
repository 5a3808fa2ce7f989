// Package program defines the control-flow-graph representation shared by
// every other component of the reproduction: a Program is a set of routines,
// each made of basic blocks connected by arcs (conditional and unconditional
// branches, fall-throughs) and by call/return transitions.
//
// The graph carries generator ground truth only (Arc.Prob, dispatch
// points): written by the synthetic kernel/application generators and
// consumed by the stochastic trace walker. Measured execution counts are
// not part of the program: they live in profile.Profile values shaped like
// it, which the layout algorithms take explicitly — so a program is never
// written after synthesis and any number of profiles can be used on it at
// once.
package program

import (
	"errors"
	"fmt"
)

// BlockID indexes into Program.Blocks. IDs are dense and stable.
type BlockID int32

// RoutineID indexes into Program.Routines.
type RoutineID int32

// NoBlock is the sentinel for "no basic block".
const NoBlock BlockID = -1

// NoRoutine is the sentinel for "no routine".
const NoRoutine RoutineID = -1

// ArcKind classifies a control transfer between two basic blocks of the same
// routine. Call and return transitions are represented by CallSite, not by
// arcs, so that the trace walker can maintain a proper call stack.
type ArcKind uint8

const (
	// ArcFallthrough is the not-taken path of a conditional branch or plain
	// sequential flow into the next block.
	ArcFallthrough ArcKind = iota
	// ArcBranch is a taken conditional or an unconditional branch.
	ArcBranch
)

// String returns a short human-readable name for the arc kind.
func (k ArcKind) String() string {
	switch k {
	case ArcFallthrough:
		return "fallthrough"
	case ArcBranch:
		return "branch"
	default:
		return fmt.Sprintf("ArcKind(%d)", uint8(k))
	}
}

// Arc is a directed control-flow edge between two blocks of one routine.
type Arc struct {
	To   BlockID
	Kind ArcKind

	// Prob is the generator ground-truth probability that this arc is taken
	// when its source block executes. The probabilities of all out-arcs of a
	// block sum to 1 (unless the block is a dispatch block, whose arc is
	// chosen by the workload). Prob is not used by layout algorithms.
	Prob float64
}

// CallSite describes a block that ends in a procedure call. After the callee
// returns, control resumes at Cont (the continuation block in the caller).
type CallSite struct {
	Callee RoutineID
	// Cont is the block in the calling routine where execution resumes after
	// the callee returns. NoBlock means the call is a tail transfer and the
	// caller returns immediately when the callee does.
	Cont BlockID
}

// DispatchID identifies a dispatch point (e.g. the system call table jump)
// whose successor is chosen by the workload rather than by static arc
// probabilities.
type DispatchID int32

// NoDispatch marks a block that is not a dispatch point.
const NoDispatch DispatchID = -1

// BasicBlock is a straight-line run of instructions.
type BasicBlock struct {
	Routine RoutineID
	// Size is the block size in bytes. Instruction fetches touch the byte
	// range [addr, addr+Size) of wherever the layout places the block.
	Size int32
	// Out lists the intra-routine successors. Empty Out with no Call marks a
	// return block: the routine exits when the block finishes.
	Out []Arc
	// HasCall reports that the block ends in a procedure call described by
	// Call. A block with a call has no Out arcs.
	HasCall bool
	Call    CallSite
	// Dispatch, if not NoDispatch, marks the block as a dispatch point whose
	// out-arc is selected by the workload (see trace.Selector).
	Dispatch DispatchID
}

// IsReturn reports whether the block exits its routine (no successors and no
// call).
func (b *BasicBlock) IsReturn() bool { return len(b.Out) == 0 && !b.HasCall }

// Routine is a procedure: a named entry block plus the set of blocks that
// belong to it, kept in original static layout order.
type Routine struct {
	Name  string
	Entry BlockID
	// Blocks lists every block of the routine in the order the "compiler"
	// emitted them; the Base layout places them in exactly this order.
	Blocks []BlockID
}

// SeedClass names the four operating-system entry classes of the paper
// (Table 1 and Section 3.2.1): the starting points of common OS functions.
type SeedClass uint8

const (
	SeedInterrupt SeedClass = iota
	SeedPageFault
	SeedSysCall
	SeedOther
	NumSeedClasses = 4
)

// String returns the paper's name for the seed class.
func (s SeedClass) String() string {
	switch s {
	case SeedInterrupt:
		return "Interrupt"
	case SeedPageFault:
		return "PageFault"
	case SeedSysCall:
		return "SysCall"
	case SeedOther:
		return "Other"
	default:
		return fmt.Sprintf("SeedClass(%d)", uint8(s))
	}
}

// Program is a complete control-flow graph: an operating system kernel or an
// application.
type Program struct {
	Name     string
	Routines []Routine
	Blocks   []BasicBlock
	// Seeds maps each entry class to its handler routine. Only kernels have
	// seeds; applications leave entries as NoRoutine and use Routines[0]
	// (main) as the single entry.
	Seeds [NumSeedClasses]RoutineID
	// NumDispatch is one past the largest DispatchID used by any block.
	NumDispatch int32
	// LinkOrder, if non-nil, is the routine order of the original (Base)
	// image — a permutation of all routine IDs. Generators use it to
	// intersperse cold code among the subsystems the way a real kernel
	// image mixes rarely-used drivers with hot paths. Nil means natural
	// order.
	LinkOrder []RoutineID
}

// New returns an empty program with no seeds.
func New(name string) *Program {
	p := &Program{Name: name}
	for i := range p.Seeds {
		p.Seeds[i] = NoRoutine
	}
	return p
}

// AddRoutine appends an empty routine and returns its ID.
func (p *Program) AddRoutine(name string) RoutineID {
	p.Routines = append(p.Routines, Routine{Name: name, Entry: NoBlock})
	return RoutineID(len(p.Routines) - 1)
}

// AddBlock appends a block of the given size to routine r and returns its ID.
// The first block added to a routine becomes its entry.
func (p *Program) AddBlock(r RoutineID, size int32) BlockID {
	id := BlockID(len(p.Blocks))
	p.Blocks = append(p.Blocks, BasicBlock{Routine: r, Size: size, Dispatch: NoDispatch})
	rt := &p.Routines[r]
	rt.Blocks = append(rt.Blocks, id)
	if rt.Entry == NoBlock {
		rt.Entry = id
	}
	return id
}

// AddArc adds an intra-routine arc from one block to another with the given
// ground-truth probability.
func (p *Program) AddArc(from, to BlockID, kind ArcKind, prob float64) {
	p.Blocks[from].Out = append(p.Blocks[from].Out, Arc{To: to, Kind: kind, Prob: prob})
}

// SetCall marks block b as ending in a call to callee, resuming at cont.
func (p *Program) SetCall(b BlockID, callee RoutineID, cont BlockID) {
	blk := &p.Blocks[b]
	blk.HasCall = true
	blk.Call = CallSite{Callee: callee, Cont: cont}
}

// SetDispatch marks block b as a dispatch point and returns the new ID.
func (p *Program) SetDispatch(b BlockID) DispatchID {
	id := DispatchID(p.NumDispatch)
	p.NumDispatch++
	p.Blocks[b].Dispatch = id
	return id
}

// Block returns the block with the given ID.
func (p *Program) Block(id BlockID) *BasicBlock { return &p.Blocks[id] }

// Routine returns the routine with the given ID.
func (p *Program) Routine(id RoutineID) *Routine { return &p.Routines[id] }

// RoutineOf returns the routine containing block id.
func (p *Program) RoutineOf(id BlockID) *Routine {
	return &p.Routines[p.Blocks[id].Routine]
}

// NumBlocks returns the number of basic blocks in the program.
func (p *Program) NumBlocks() int { return len(p.Blocks) }

// NumRoutines returns the number of routines in the program.
func (p *Program) NumRoutines() int { return len(p.Routines) }

// CodeSize returns the total static code size in bytes.
func (p *Program) CodeSize() int64 {
	var n int64
	for i := range p.Blocks {
		n += int64(p.Blocks[i].Size)
	}
	return n
}

// Order returns the Base-image routine order: LinkOrder when set, natural
// order otherwise.
func (p *Program) Order() []RoutineID {
	if p.LinkOrder != nil {
		return p.LinkOrder
	}
	order := make([]RoutineID, len(p.Routines))
	for i := range order {
		order[i] = RoutineID(i)
	}
	return order
}

// Validate checks structural invariants of the program and returns a
// descriptive error for the first violation found.
func (p *Program) Validate() error {
	if len(p.Routines) == 0 {
		return errors.New("program: no routines")
	}
	if p.LinkOrder != nil {
		if len(p.LinkOrder) != len(p.Routines) {
			return fmt.Errorf("program: link order has %d entries for %d routines", len(p.LinkOrder), len(p.Routines))
		}
		seen := make([]bool, len(p.Routines))
		for _, r := range p.LinkOrder {
			if r < 0 || int(r) >= len(p.Routines) || seen[r] {
				return fmt.Errorf("program: link order is not a permutation (routine %d)", r)
			}
			seen[r] = true
		}
	}
	owner := make([]RoutineID, len(p.Blocks))
	for i := range owner {
		owner[i] = NoRoutine
	}
	for ri := range p.Routines {
		rt := &p.Routines[ri]
		if len(rt.Blocks) == 0 {
			return fmt.Errorf("program: routine %q has no blocks", rt.Name)
		}
		if rt.Entry == NoBlock {
			return fmt.Errorf("program: routine %q has no entry", rt.Name)
		}
		for _, b := range rt.Blocks {
			if b < 0 || int(b) >= len(p.Blocks) {
				return fmt.Errorf("program: routine %q references block %d out of range", rt.Name, b)
			}
			if owner[b] != NoRoutine {
				return fmt.Errorf("program: block %d claimed by two routines", b)
			}
			owner[b] = RoutineID(ri)
		}
	}
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		if owner[bi] != b.Routine {
			return fmt.Errorf("program: block %d routine field %d disagrees with owner %d", bi, b.Routine, owner[bi])
		}
		if b.Size <= 0 {
			return fmt.Errorf("program: block %d has non-positive size %d", bi, b.Size)
		}
		if b.HasCall && len(b.Out) > 0 {
			return fmt.Errorf("program: block %d has both a call and out-arcs", bi)
		}
		if b.HasCall {
			if b.Call.Callee < 0 || int(b.Call.Callee) >= len(p.Routines) {
				return fmt.Errorf("program: block %d calls routine %d out of range", bi, b.Call.Callee)
			}
			if b.Call.Cont != NoBlock && p.Blocks[b.Call.Cont].Routine != b.Routine {
				return fmt.Errorf("program: block %d call continuation %d is in another routine", bi, b.Call.Cont)
			}
		}
		var sum float64
		for _, a := range b.Out {
			if a.To < 0 || int(a.To) >= len(p.Blocks) {
				return fmt.Errorf("program: block %d arc to %d out of range", bi, a.To)
			}
			if p.Blocks[a.To].Routine != b.Routine {
				return fmt.Errorf("program: block %d arc to %d crosses routines", bi, a.To)
			}
			if a.Prob < 0 || a.Prob > 1 {
				return fmt.Errorf("program: block %d arc to %d has probability %g outside [0,1]", bi, a.To, a.Prob)
			}
			sum += a.Prob
		}
		if len(b.Out) > 0 && b.Dispatch == NoDispatch && (sum < 0.999 || sum > 1.001) {
			return fmt.Errorf("program: block %d out-arc probabilities sum to %g", bi, sum)
		}
	}
	for class, r := range p.Seeds {
		if r == NoRoutine {
			continue
		}
		if r < 0 || int(r) >= len(p.Routines) {
			return fmt.Errorf("program: seed %s routine %d out of range", SeedClass(class), r)
		}
	}
	return nil
}
