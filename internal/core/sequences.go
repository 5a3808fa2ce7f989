// Package core implements the paper's contribution: the instruction
// placement algorithm of Section 4, which exposes the three localities of
// systems code —
//
//   - spatial locality, by building sequences of basic blocks greedily from
//     the four operating-system seeds under a schedule of decreasing
//     (ExecThresh, BranchThresh) pairs, crossing routine boundaries
//     (Section 4.1, Table 4);
//   - temporal locality, by reserving a SelfConfFree area at the start of
//     the first logical cache for the hottest basic blocks, with only
//     seldom-executed code at conflicting offsets of the other logical
//     caches (Section 4.2, Figure 10);
//   - loop locality, optionally, by pulling the blocks of loops with enough
//     iterations out of the sequences into a contiguous loop area
//     (Section 4.3, the OptL variant), and — as the evaluated-but-rejected
//     advanced optimisation — by placing loops-with-callees in private
//     logical caches driven by a conflict matrix (Section 4.4).
package core

import (
	"cmp"
	"slices"

	"oslayout/internal/profile"
	"oslayout/internal/program"
)

// Thresh is one (ExecThresh, BranchThresh) pair of the schedule. Exec is a
// fraction of the total basic-block execution count; Branch is an arc
// probability. A negative Exec marks the seed inactive in this iteration.
type Thresh struct {
	Exec   float64
	Branch float64
}

// inactive is the Thresh of a seed that does not participate in a schedule
// iteration (Table 4 staggers the seeds).
var inactive = Thresh{Exec: -1}

// Schedule is the per-iteration, per-seed threshold table.
type Schedule [][program.NumSeedClasses]Thresh

// StaggeredSchedule builds a schedule from an ExecThresh ladder and a
// BranchThresh decay: seed class c joins at iteration c (interrupts first,
// then page faults, system calls and other, as in Table 4), and a seed that
// joined j iterations ago uses branch[j]. The final iteration must have
// ExecThresh 0; every seed then also uses BranchThresh 0 so all executed
// code is captured.
func StaggeredSchedule(exec, branch []float64) Schedule {
	sched := make(Schedule, len(exec))
	for i := range exec {
		for c := 0; c < program.NumSeedClasses; c++ {
			if i < c {
				sched[i][c] = inactive
				continue
			}
			j := i - c
			if j >= len(branch) {
				j = len(branch) - 1
			}
			th := Thresh{Exec: exec[i], Branch: branch[j]}
			if exec[i] == 0 {
				th.Branch = 0
			}
			sched[i][c] = th
		}
	}
	return sched
}

// Table4Schedule reproduces the paper's Table 4 values exactly: ExecThresh
// dropping by roughly an order of magnitude per iteration from 1.4%, and
// BranchThresh decaying from 40% along each seed's own ladder.
func Table4Schedule() Schedule {
	return StaggeredSchedule(
		[]float64{0.014, 0.005, 0.001, 0.0001, 1e-7, 0},
		[]float64{0.4, 0.1, 0.01, 0.01, 0.001, 0})
}

// DefaultSchedule is the schedule used by the reproduction's experiments.
// The paper chose its threshold pairs "so that the length of each of the
// most important sequences ranges from 1 to 4 Kbytes" for its profile; this
// denser ladder achieves the same sequence granularity for the synthetic
// kernel's weight distribution.
func DefaultSchedule() Schedule {
	return StaggeredSchedule(
		[]float64{0.014, 0.005, 0.002, 0.001, 4e-4, 2e-4, 1e-4, 4e-5, 2e-5, 1e-5, 1e-6, 0},
		[]float64{0.4, 0.1, 0.05, 0.02, 0.01, 0.01, 0.005, 0.002, 0.001, 0.0005, 0.0001, 0})
}

// Sequence is one placed run of basic blocks generated from a seed under one
// threshold pair.
type Sequence struct {
	Seed   program.SeedClass
	Iter   int
	Thresh Thresh
	Blocks []program.BlockID
	Bytes  int64
}

// node is one block as the sequence builder sees it: the profile's
// execution count, the block's profile edges edges[lo:hi], and the
// findStart search mark.
type node struct {
	w      uint64
	lo, hi int32
	// seen marks the blocks the current findStart search has reached:
	// seen == epoch. Each search bumps epoch instead of clearing, so the
	// restarts of a whole build share one allocation. The epoch cannot
	// wrap: every search but the last of each (iteration, seed) phase
	// places a block, so a build runs far fewer than 2^32 searches.
	seen uint32
}

// edge is one profile edge out of a block, in the order the walks try
// them: each traversed intra-routine arc with its count, then for a call
// block the callee's entry (only if the call executed) and the
// continuation. Call edges are always hot; never-traversed arcs are left
// out, since no walk follows them.
type edge struct {
	to   program.BlockID
	call bool
	w    uint64
}

// seqBuilder holds the shared state of sequence construction. The walks
// read counts and edges only from the flat per-build nodes and edges, laid
// out from the program and profile once per build; the restart search
// reads nothing else.
type seqBuilder struct {
	p       *program.Program
	nodes   []node
	edges   []edge
	total   float64 // total block execution weight
	visited []bool
	epoch   uint32
	// queue and stack are the reusable BFS queue of findStart and the
	// pending-continuation stack of a greedy walk.
	queue []program.BlockID
	stack []program.BlockID
	// order holds every placed block in placement order. Only executed
	// blocks are placed, each at most once, so sized to the executed-block
	// count it never grows; each sequence's Blocks is a capacity-capped
	// window of it.
	order []program.BlockID
}

// acceptable reports whether block b may join a sequence under th: it must
// be executed, not yet placed, and hot enough.
func (sb *seqBuilder) acceptable(b program.BlockID, th Thresh) bool {
	if sb.visited[b] {
		return false
	}
	w := sb.nodes[b].w
	return w > 0 && float64(w) >= th.Exec*sb.total
}

// BuildSequences runs the full schedule over the program's seeds and returns
// the sequences in placement order (hottest first), reading execution counts
// from prof (which must be shaped for p). Entries lists the seed entry
// blocks; for kernels use SeedEntries, for applications the mains. The
// returned visited set marks every block placed into some sequence.
func BuildSequences(p *program.Program, prof *profile.Profile, entries [program.NumSeedClasses]program.BlockID, schedule Schedule) ([]Sequence, []bool) {
	return BuildSequencesCapped(p, prof, entries, schedule, 0)
}

// BuildSequencesCapped is BuildSequences with an optional per-sequence byte
// cap: once a sequence reaches maxSeqBytes, it is closed and construction
// continues in a fresh sequence of the same (iteration, seed) phase. The
// paper keeps its most important sequences at 1-4 KB "to reduce conflicts";
// it achieves that by tuning the threshold schedule, and the cap offers the
// same control directly (0 disables it).
func BuildSequencesCapped(p *program.Program, prof *profile.Profile, entries [program.NumSeedClasses]program.BlockID, schedule Schedule, maxSeqBytes int64) ([]Sequence, []bool) {
	sb := newSeqBuilder(p, prof)
	var seqs []Sequence
	for iter, row := range schedule {
		for class := 0; class < program.NumSeedClasses; class++ {
			th := row[class]
			if th.Exec < 0 || entries[class] == program.NoBlock {
				continue
			}
			blocks := sb.buildOne(entries[class], th)
			for len(blocks) > 0 {
				n := chunkLen(p, blocks, maxSeqBytes)
				s := Sequence{Seed: program.SeedClass(class), Iter: iter, Thresh: th, Blocks: blocks[:n:n]}
				for _, b := range s.Blocks {
					s.Bytes += int64(p.Block(b).Size)
				}
				seqs = append(seqs, s)
				blocks = blocks[n:]
			}
		}
	}
	// Leftover executed blocks (unreachable from the seeds through weighted
	// edges — possible when profiles are averaged) become a final sequence
	// ordered by weight.
	start := len(sb.order)
	for b := range sb.nodes {
		if !sb.visited[b] && sb.nodes[b].w > 0 {
			sb.order = append(sb.order, program.BlockID(b))
		}
	}
	if leftover := sb.order[start:]; len(leftover) > 0 {
		slices.SortStableFunc(leftover, func(a, b program.BlockID) int {
			return cmp.Compare(sb.nodes[b].w, sb.nodes[a].w)
		})
		s := Sequence{Seed: program.SeedOther, Iter: len(schedule), Blocks: leftover}
		for _, b := range leftover {
			sb.visited[b] = true
			s.Bytes += int64(p.Block(b).Size)
		}
		seqs = append(seqs, s)
	}
	return seqs, sb.visited
}

// newSeqBuilder lays out the per-build node and edge slices of program p
// under profile prof.
func newSeqBuilder(p *program.Program, prof *profile.Profile) *seqBuilder {
	n := p.NumBlocks()
	sb := &seqBuilder{
		p:       p,
		nodes:   make([]node, n),
		visited: make([]bool, n),
	}
	// Only executed blocks get edges: the walks only ever leave placed or
	// already-visited blocks, and only executed blocks are placed. Size
	// the edges for all their arcs and calls, traversed or not, so the
	// profile's per-block arc counts are walked once.
	var total uint64
	executed, maxEdges := 0, 0
	for b, w := range prof.Block {
		if w > 0 {
			total += w
			executed++
			maxEdges += len(p.Blocks[b].Out)
			if p.Blocks[b].HasCall {
				maxEdges += 2
			}
		}
	}
	sb.total = float64(total)
	sb.edges = make([]edge, 0, maxEdges)
	for b, w := range prof.Block {
		nd := &sb.nodes[b]
		nd.w = w
		nd.lo = int32(len(sb.edges))
		if w > 0 {
			blk := &p.Blocks[b]
			for j, aw := range prof.Arc[b] {
				if aw > 0 {
					sb.edges = append(sb.edges, edge{to: blk.Out[j].To, w: aw})
				}
			}
			if blk.HasCall {
				if prof.Call[b] > 0 {
					sb.edges = append(sb.edges, edge{to: p.Routines[blk.Call.Callee].Entry, call: true})
				}
				if blk.Call.Cont != program.NoBlock {
					sb.edges = append(sb.edges, edge{to: blk.Call.Cont, call: true})
				}
			}
		}
		nd.hi = int32(len(sb.edges))
	}
	sb.order = make([]program.BlockID, 0, executed)
	return sb
}

// chunkLen returns how many leading blocks form the next chunk of at most
// maxBytes (0 = no cap). A chunk always contains at least one block.
func chunkLen(p *program.Program, blocks []program.BlockID, maxBytes int64) int {
	if maxBytes <= 0 {
		return len(blocks)
	}
	var size int64
	for i, b := range blocks {
		size += int64(p.Block(b).Size)
		if size > maxBytes && i > 0 {
			return i
		}
	}
	return len(blocks)
}

// SeedEntries returns the entry blocks of a kernel's four seed routines.
func SeedEntries(p *program.Program) [program.NumSeedClasses]program.BlockID {
	var e [program.NumSeedClasses]program.BlockID
	for c := range e {
		e[c] = program.NoBlock
		if r := p.Seeds[c]; r != program.NoRoutine {
			e[c] = p.Routine(r).Entry
		}
	}
	return e
}

// MainEntries returns application entries: main routines are mapped onto the
// seed slots (the paper uses "the main function as the seed" for
// applications).
func MainEntries(p *program.Program, mains []program.RoutineID) [program.NumSeedClasses]program.BlockID {
	var e [program.NumSeedClasses]program.BlockID
	for c := range e {
		e[c] = program.NoBlock
	}
	for i, m := range mains {
		if i >= program.NumSeedClasses {
			break
		}
		e[i] = p.Routine(m).Entry
	}
	return e
}

// buildOne grows a single sequence: repeated greedy walks from the seed, as
// in Section 3.2.1 — "given a basic block, the algorithm follows the most
// frequently executed path out of it", visiting callees inline, until every
// restart from the seed finds no more acceptable blocks.
func (sb *seqBuilder) buildOne(seedEntry program.BlockID, th Thresh) []program.BlockID {
	first := len(sb.order)
	for {
		start := sb.findStart(seedEntry, th)
		if start == program.NoBlock {
			return sb.order[first:len(sb.order):len(sb.order)]
		}
		stack := sb.stack[:0]
		for cur := start; cur != program.NoBlock; {
			sb.visited[cur] = true
			sb.order = append(sb.order, cur)
			cur = sb.next(cur, &stack, th)
		}
		sb.stack = stack
	}
}

// next picks the block placed after cur within the greedy walk, or NoBlock
// when the walk is stuck (all successors visited, too cold, or all arcs
// below BranchThresh) — the caller then restarts from the seed.
func (sb *seqBuilder) next(cur program.BlockID, stack *[]program.BlockID, th Thresh) program.BlockID {
	b := sb.p.Block(cur)
	if b.HasCall {
		calleeEntry := sb.p.Routine(b.Call.Callee).Entry
		if sb.acceptable(calleeEntry, th) {
			if b.Call.Cont != program.NoBlock {
				*stack = append(*stack, b.Call.Cont)
			}
			return calleeEntry
		}
		// Callee already placed or too cold: skip over the call and continue
		// in the caller.
		if b.Call.Cont != program.NoBlock && sb.acceptable(b.Call.Cont, th) {
			return b.Call.Cont
		}
		return sb.pop(stack, th)
	}
	if len(b.Out) > 0 {
		best := program.NoBlock
		var bestW uint64
		nd := &sb.nodes[cur]
		bw := float64(nd.w)
		for _, e := range sb.edges[nd.lo:nd.hi] {
			if sb.visited[e.to] {
				continue
			}
			if bw > 0 && float64(e.w)/bw < th.Branch {
				continue
			}
			if !sb.acceptable(e.to, th) {
				continue
			}
			if best == program.NoBlock || e.w > bestW {
				best, bestW = e.to, e.w
			}
		}
		if best != program.NoBlock {
			return best
		}
		return sb.pop(stack, th)
	}
	// Return block: resume at the innermost pending continuation.
	return sb.pop(stack, th)
}

// pop unwinds pending continuations until one is placeable.
func (sb *seqBuilder) pop(stack *[]program.BlockID, th Thresh) program.BlockID {
	for len(*stack) > 0 {
		cont := (*stack)[len(*stack)-1]
		*stack = (*stack)[:len(*stack)-1]
		if sb.acceptable(cont, th) {
			return cont
		}
	}
	return program.NoBlock
}

// findStart re-walks from the seed through already-visited blocks along
// sufficiently probable profile edges, returning the heaviest unvisited
// acceptable block it reaches, ties going to the first encountered in BFS
// order ("we start again from the seed looking for the next acceptable
// basic block"). The search allocates nothing: it marks reached blocks with
// a fresh epoch in their node and reuses sb.queue, popping by index.
func (sb *seqBuilder) findStart(seedEntry program.BlockID, th Thresh) program.BlockID {
	if sb.acceptable(seedEntry, th) {
		return seedEntry
	}
	if !sb.visited[seedEntry] {
		// Seed entry not hot enough yet; nothing reachable this iteration.
		return program.NoBlock
	}
	sb.epoch++
	epoch := sb.epoch
	queue := append(sb.queue[:0], seedEntry)
	sb.nodes[seedEntry].seen = epoch
	var best program.BlockID = program.NoBlock
	var bestW uint64
	for i := 0; i < len(queue); i++ {
		nx := &sb.nodes[queue[i]]
		bw := float64(nx.w)
		for _, e := range sb.edges[nx.lo:nx.hi] {
			to := &sb.nodes[e.to]
			if to.seen == epoch {
				continue
			}
			if sb.visited[e.to] {
				to.seen = epoch
				queue = append(queue, e.to)
				continue
			}
			hot := e.call || bw == 0 || float64(e.w)/bw >= th.Branch
			if hot && sb.acceptable(e.to, th) {
				if best == program.NoBlock || to.w > bestW {
					best, bestW = e.to, to.w
				}
			}
		}
	}
	sb.queue = queue
	return best
}
