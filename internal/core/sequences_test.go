package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"oslayout/internal/appgen"
	"oslayout/internal/kernelgen"
	"oslayout/internal/profile"
	"oslayout/internal/program"
	"oslayout/internal/progtest"
	"oslayout/internal/trace"
	"oslayout/internal/workload"
)

// fig9Entries maps the push_hrtime entry onto the interrupt seed slot.
// fig9Profile returns the Figure 9 fixture's counts as a profile.
func fig9Profile(f *progtest.Figure9Fixture) *profile.Profile {
	return &profile.Profile{Block: f.Block, Arc: f.Arc, Call: f.Call, RoutineInv: f.RoutineInv}
}

func fig9Entries(f *progtest.Figure9Fixture) [program.NumSeedClasses]program.BlockID {
	var e [program.NumSeedClasses]program.BlockID
	for c := range e {
		e[c] = program.NoBlock
	}
	e[program.SeedInterrupt] = f.Node["push0"]
	return e
}

// fig9Schedule is a two-pass schedule like the paper's worked example:
// first a selective pass, then the catch-all (0,0) pass.
func fig9Schedule() Schedule {
	var row1, row2 [program.NumSeedClasses]Thresh
	for c := range row1 {
		row1[c] = inactive
		row2[c] = inactive
	}
	row1[program.SeedInterrupt] = Thresh{Exec: 0.005, Branch: 0.1}
	row2[program.SeedInterrupt] = Thresh{Exec: 0, Branch: 0}
	return Schedule{row1, row2}
}

// TestFigure9SequenceConstruction replays the paper's Figure 9 example: the
// greedy walk places caller blocks, inlines the callee routines' hot blocks
// between them, resumes the caller at the continuation, and picks up the
// leftover acceptable block (the paper's "node 16") by restarting from the
// seed. The second, catch-all pass collects the rare blocks.
func TestFigure9SequenceConstruction(t *testing.T) {
	f := progtest.Figure9()
	prof := fig9Profile(f)
	seqs, visited := BuildSequences(f.Prog, prof, fig9Entries(f), fig9Schedule())
	if len(seqs) != 2 {
		t.Fatalf("built %d sequences, want 2", len(seqs))
	}

	names := func(s Sequence) []string {
		rev := map[program.BlockID]string{}
		for n, b := range f.Node {
			rev[b] = n
		}
		var out []string
		for _, b := range s.Blocks {
			out = append(out, rev[b])
		}
		return out
	}

	want1 := []string{
		"push0", "push1", "push4",
		"push8", "read0", "read1", "read2", "read3",
		"push9", "push10", "push11", "push12",
		"check0", "check1", "check2", "check5",
		"push13", "update0",
		"push14", "push15", "push17", "push18", "push19",
		"push16", // found by restarting from the seed
	}
	got1 := names(seqs[0])
	if len(got1) != len(want1) {
		t.Fatalf("pass 1 sequence:\n got %v\nwant %v", got1, want1)
	}
	for i := range want1 {
		if got1[i] != want1[i] {
			t.Fatalf("pass 1 sequence differs at %d:\n got %v\nwant %v", i, got1, want1)
		}
	}

	want2 := map[string]bool{"push5": true, "push7": true, "check3": true, "check4": true}
	got2 := names(seqs[1])
	if len(got2) != len(want2) {
		t.Fatalf("pass 2 sequence = %v, want the 4 rare blocks", got2)
	}
	for _, n := range got2 {
		if !want2[n] {
			t.Fatalf("pass 2 includes unexpected block %s", n)
		}
	}

	for b := range f.Prog.Blocks {
		if prof.Block[b] > 0 && !visited[b] {
			t.Fatalf("executed block %d never placed in a sequence", b)
		}
	}
}

// TestSequenceBranchThreshold verifies that arcs below BranchThresh stop the
// walk: with BranchThresh above the cold side's probability, the cold chain
// is excluded from the first pass even though it meets ExecThresh.
func TestSequenceBranchThreshold(t *testing.T) {
	p, _ := progtest.Diamond(0.1)
	prof := profile.New(p)
	// entry=0 (w100) splits 10/90 to a=1/b=2; join=3; exit=4.
	ws := []uint64{100, 10, 90, 100, 100}
	for i, w := range ws {
		prof.Block[i] = w
	}
	prof.Arc[0][0] = 10
	prof.Arc[0][1] = 90
	prof.Arc[1][0] = 10
	prof.Arc[2][0] = 90
	prof.Arc[3][0] = 100

	var entries [program.NumSeedClasses]program.BlockID
	for c := range entries {
		entries[c] = program.NoBlock
	}
	entries[0] = 0
	var row [program.NumSeedClasses]Thresh
	for c := range row {
		row[c] = inactive
	}
	// ExecThresh 0 accepts every executed block; BranchThresh 0.5 only
	// allows the hot arc out of the entry.
	row[0] = Thresh{Exec: 0, Branch: 0.5}
	seqs, _ := BuildSequences(p, prof, entries, Schedule{row})
	// Walk: 0 -> 2 (0.9) -> 3 (1.0) -> 4; block 1 is reachable only through
	// a 0.1 arc, below BranchThresh, so neither the walk nor the restart
	// reaches it. It is executed, so the leftover sweep collects it into a
	// final sequence of its own.
	if len(seqs) != 2 {
		t.Fatalf("want main + leftover sequences, got %d", len(seqs))
	}
	want := []program.BlockID{0, 2, 3, 4}
	got := seqs[0].Blocks
	if len(got) != len(want) {
		t.Fatalf("sequence %v, want %v", got, want)
	}
	for i, b := range want {
		if got[i] != b {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
	if len(seqs[1].Blocks) != 1 || seqs[1].Blocks[0] != 1 {
		t.Fatalf("leftover sequence = %v, want [1]", seqs[1].Blocks)
	}
}

// TestSequencesPruneUnexecuted verifies that never-executed blocks are not
// placed in any sequence even at (0,0).
func TestSequencesPruneUnexecuted(t *testing.T) {
	p, _ := progtest.Linear(4, 8)
	prof := profile.New(p)
	prof.Block[0] = 10
	prof.Block[1] = 10
	prof.Arc[0][0] = 10
	var entries [program.NumSeedClasses]program.BlockID
	for c := range entries {
		entries[c] = program.NoBlock
	}
	entries[0] = 0
	var row [program.NumSeedClasses]Thresh
	for c := range row {
		row[c] = inactive
	}
	row[0] = Thresh{Exec: 0, Branch: 0}
	seqs, visited := BuildSequences(p, prof, entries, Schedule{row})
	var placed int
	for _, s := range seqs {
		placed += len(s.Blocks)
	}
	if placed != 2 {
		t.Fatalf("placed %d blocks, want 2 (executed only)", placed)
	}
	if visited[2] || visited[3] {
		t.Fatal("unexecuted blocks marked visited")
	}
}

func TestStaggeredScheduleMatchesTable4(t *testing.T) {
	s := Table4Schedule()
	if len(s) != 6 {
		t.Fatalf("%d iterations, want 6", len(s))
	}
	i, pf, sc, ot := program.SeedInterrupt, program.SeedPageFault, program.SeedSysCall, program.SeedOther
	// Row 0: only interrupts, (1.4%, 40%).
	if s[0][i] != (Thresh{0.014, 0.4}) {
		t.Errorf("row0 interrupt = %+v", s[0][i])
	}
	for _, c := range []program.SeedClass{pf, sc, ot} {
		if s[0][c].Exec >= 0 {
			t.Errorf("row0 class %v should be inactive", c)
		}
	}
	// Row 1: interrupts (0.5%, 10%), page faults (0.5%, 40%).
	if s[1][i] != (Thresh{0.005, 0.1}) || s[1][pf] != (Thresh{0.005, 0.4}) {
		t.Errorf("row1 = %+v / %+v", s[1][i], s[1][pf])
	}
	// Row 3: syscalls use branch[1] = 10%, other joins at 40%.
	if s[3][sc] != (Thresh{0.0001, 0.1}) || s[3][ot] != (Thresh{0.0001, 0.4}) {
		t.Errorf("row3 = %+v / %+v", s[3][sc], s[3][ot])
	}
	// Final row: everything at (0,0).
	last := s[len(s)-1]
	for c := 0; c < program.NumSeedClasses; c++ {
		if last[c] != (Thresh{0, 0}) {
			t.Errorf("final row class %d = %+v, want (0,0)", c, last[c])
		}
	}
}

func TestSeedAndMainEntries(t *testing.T) {
	f := progtest.Figure9()
	f.Prog.Seeds[program.SeedInterrupt] = f.Push
	e := SeedEntries(f.Prog)
	if e[program.SeedInterrupt] != f.Node["push0"] {
		t.Fatal("SeedEntries wrong")
	}
	if e[program.SeedSysCall] != program.NoBlock {
		t.Fatal("unset seeds should be NoBlock")
	}
	m := MainEntries(f.Prog, []program.RoutineID{f.Read, f.Check})
	if m[0] != f.Node["read0"] || m[1] != f.Node["check0"] {
		t.Fatal("MainEntries wrong")
	}
	if m[2] != program.NoBlock {
		t.Fatal("extra main slots should be NoBlock")
	}
}

func TestBuildSequencesCapped(t *testing.T) {
	f := progtest.Figure9()
	prof := fig9Profile(f)
	seqs, visited := BuildSequencesCapped(f.Prog, prof, fig9Entries(f), fig9Schedule(), 64)
	// Every sequence respects the cap (single oversized blocks excepted;
	// the fixture's blocks are 16 bytes so none apply).
	var placed int
	for _, s := range seqs {
		if s.Bytes > 64 {
			t.Fatalf("sequence of %d bytes exceeds the 64-byte cap", s.Bytes)
		}
		placed += len(s.Blocks)
	}
	// Capping must not change WHAT is placed, only how it is chunked.
	uncapped, _ := BuildSequences(f.Prog, prof, fig9Entries(f), fig9Schedule())
	var placedU int
	for _, s := range uncapped {
		placedU += len(s.Blocks)
	}
	if placed != placedU {
		t.Fatalf("capped placement covers %d blocks, uncapped %d", placed, placedU)
	}
	for b := range f.Prog.Blocks {
		if prof.Block[b] > 0 && !visited[b] {
			t.Fatalf("executed block %d missing under capping", b)
		}
	}
	// Order is preserved across chunk boundaries: flatten and compare.
	flatten := func(ss []Sequence) []program.BlockID {
		var out []program.BlockID
		for _, s := range ss {
			out = append(out, s.Blocks...)
		}
		return out
	}
	fc, fu := flatten(seqs), flatten(uncapped)
	for i := range fu {
		if fc[i] != fu[i] {
			t.Fatalf("capped order diverges at %d", i)
		}
	}
}

// The naive oracle: sequence construction exactly as it stood while
// findStart allocated a fresh map for every restart search and each
// sequence owned its own block slice. It is kept verbatim (plus a restart
// counter) so the fast builder is checked against an independent
// implementation, not against itself.

// naiveSeqBuilder holds the shared state of sequence construction.
type naiveSeqBuilder struct {
	p       *program.Program
	prof    *profile.Profile
	total   float64 // total block execution weight
	visited []bool
	// restarts counts findStart calls that search past the seed entry
	// (an addition to the copied code, for the allocation gate).
	restarts int
}

// acceptable reports whether block b may join a sequence under th: it must
// be executed, not yet placed, and hot enough.
func (sb *naiveSeqBuilder) acceptable(b program.BlockID, th Thresh) bool {
	if sb.visited[b] {
		return false
	}
	w := sb.prof.Block[b]
	return w > 0 && float64(w) >= th.Exec*sb.total
}

// BuildSequencesCapped is BuildSequences with an optional per-sequence byte
// cap: once a sequence reaches maxSeqBytes, it is closed and construction
// continues in a fresh sequence of the same (iteration, seed) phase. The
// paper keeps its most important sequences at 1-4 KB "to reduce conflicts";
// it achieves that by tuning the threshold schedule, and the cap offers the
// same control directly (0 disables it).
func naiveBuildSequencesCapped(p *program.Program, prof *profile.Profile, entries [program.NumSeedClasses]program.BlockID, schedule Schedule, maxSeqBytes int64) ([]Sequence, []bool, int) {
	sb := &naiveSeqBuilder{
		p:       p,
		prof:    prof,
		total:   float64(prof.Total()),
		visited: make([]bool, p.NumBlocks()),
	}
	var seqs []Sequence
	for iter, row := range schedule {
		for class := 0; class < program.NumSeedClasses; class++ {
			th := row[class]
			if th.Exec < 0 || entries[class] == program.NoBlock {
				continue
			}
			blocks := sb.buildOne(entries[class], th)
			if len(blocks) == 0 {
				continue
			}
			for _, chunk := range naiveSplitByBytes(p, blocks, maxSeqBytes) {
				s := Sequence{Seed: program.SeedClass(class), Iter: iter, Thresh: th, Blocks: chunk}
				for _, b := range chunk {
					s.Bytes += int64(p.Block(b).Size)
				}
				seqs = append(seqs, s)
			}
		}
	}
	// Leftover executed blocks (unreachable from the seeds through weighted
	// edges — possible when profiles are averaged) become a final sequence
	// ordered by weight.
	var leftover []program.BlockID
	for b := range p.Blocks {
		if !sb.visited[b] && prof.Block[b] > 0 {
			leftover = append(leftover, program.BlockID(b))
		}
	}
	if len(leftover) > 0 {
		sort.SliceStable(leftover, func(i, j int) bool {
			return prof.Block[leftover[i]] > prof.Block[leftover[j]]
		})
		s := Sequence{Seed: program.SeedOther, Iter: len(schedule), Blocks: leftover}
		for _, b := range leftover {
			sb.visited[b] = true
			s.Bytes += int64(p.Block(b).Size)
		}
		seqs = append(seqs, s)
	}
	return seqs, sb.visited, sb.restarts
}

// naiveSplitByBytes cuts a block list into chunks of at most maxBytes (0 = no
// cap). A chunk always contains at least one block.
func naiveSplitByBytes(p *program.Program, blocks []program.BlockID, maxBytes int64) [][]program.BlockID {
	if maxBytes <= 0 {
		return [][]program.BlockID{blocks}
	}
	var out [][]program.BlockID
	start := 0
	var size int64
	for i, b := range blocks {
		bs := int64(p.Block(b).Size)
		if size+bs > maxBytes && i > start {
			out = append(out, blocks[start:i])
			start = i
			size = 0
		}
		size += bs
	}
	out = append(out, blocks[start:])
	return out
}

// buildOne grows a single sequence: repeated greedy walks from the seed, as
// in Section 3.2.1 — "given a basic block, the algorithm follows the most
// frequently executed path out of it", visiting callees inline, until every
// restart from the seed finds no more acceptable blocks.
func (sb *naiveSeqBuilder) buildOne(seedEntry program.BlockID, th Thresh) []program.BlockID {
	var blocks []program.BlockID
	for {
		start := sb.findStart(seedEntry, th)
		if start == program.NoBlock {
			return blocks
		}
		var stack []program.BlockID
		for cur := start; cur != program.NoBlock; {
			sb.visited[cur] = true
			blocks = append(blocks, cur)
			cur = sb.next(cur, &stack, th)
		}
	}
}

// next picks the block placed after cur within the greedy walk, or NoBlock
// when the walk is stuck (all successors visited, too cold, or all arcs
// below BranchThresh) — the caller then restarts from the seed.
func (sb *naiveSeqBuilder) next(cur program.BlockID, stack *[]program.BlockID, th Thresh) program.BlockID {
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
		bw := float64(sb.prof.Block[cur])
		for j, a := range b.Out {
			aw := sb.prof.Arc[cur][j]
			if aw == 0 || sb.visited[a.To] {
				continue
			}
			if bw > 0 && float64(aw)/bw < th.Branch {
				continue
			}
			if !sb.acceptable(a.To, th) {
				continue
			}
			if best == program.NoBlock || aw > bestW {
				best, bestW = a.To, aw
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
func (sb *naiveSeqBuilder) pop(stack *[]program.BlockID, th Thresh) program.BlockID {
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
// sufficiently probable profile edges, returning the first unvisited
// acceptable block encountered ("we start again from the seed looking for
// the next acceptable basic block").
func (sb *naiveSeqBuilder) findStart(seedEntry program.BlockID, th Thresh) program.BlockID {
	if sb.acceptable(seedEntry, th) {
		return seedEntry
	}
	if !sb.visited[seedEntry] {
		// Seed entry not hot enough yet; nothing reachable this iteration.
		return program.NoBlock
	}
	sb.restarts++
	seen := make(map[program.BlockID]bool, 256)
	queue := []program.BlockID{seedEntry}
	seen[seedEntry] = true
	var best program.BlockID = program.NoBlock
	var bestW uint64
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		b := sb.p.Block(x)
		tryEdge := func(to program.BlockID, hot bool) {
			if seen[to] {
				return
			}
			if sb.visited[to] {
				seen[to] = true
				queue = append(queue, to)
				return
			}
			if hot && sb.acceptable(to, th) {
				if w := sb.prof.Block[to]; best == program.NoBlock || w > bestW {
					best, bestW = to, w
				}
			}
		}
		bw := float64(sb.prof.Block[x])
		for j, a := range b.Out {
			aw := sb.prof.Arc[x][j]
			if aw == 0 {
				continue
			}
			hot := bw == 0 || float64(aw)/bw >= th.Branch
			tryEdge(a.To, hot)
		}
		if b.HasCall {
			if sb.prof.Call[x] > 0 {
				tryEdge(sb.p.Routine(b.Call.Callee).Entry, true)
			}
			if b.Call.Cont != program.NoBlock {
				tryEdge(b.Call.Cont, true)
			}
		}
	}
	return best
}

// profiledSeedKernel builds the default-size kernel at the given seed and
// returns it with the average of short-trace profiles of the paper's four
// workloads — the profile shape the experiments build layouts from,
// leftover blocks included.
func profiledSeedKernel(t testing.TB, seed int64) (*kernelgen.Kernel, *profile.Profile) {
	t.Helper()
	cfg := kernelgen.DefaultConfig()
	cfg.Seed = seed
	k := kernelgen.Build(cfg)
	var profs []*profile.Profile
	for i, w := range workload.Paper() {
		tr, _, err := workload.Generate(k, w, workload.Options{Seed: int64(7001 + 13*i), OSRefs: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		osp, _ := profile.FromTrace(tr)
		profs = append(profs, osp)
	}
	avg, err := profile.Average(profs...)
	if err != nil {
		t.Fatal(err)
	}
	return k, avg
}

// checkAgainstOracle builds sequences with both builders and fails on the
// first difference in sequence metadata, block order or visited set.
func checkAgainstOracle(t *testing.T, p *program.Program, prof *profile.Profile, entries [program.NumSeedClasses]program.BlockID, sched Schedule, maxSeqBytes int64) []Sequence {
	t.Helper()
	got, gotV := BuildSequencesCapped(p, prof, entries, sched, maxSeqBytes)
	want, wantV, _ := naiveBuildSequencesCapped(p, prof, entries, sched, maxSeqBytes)
	if len(got) != len(want) {
		t.Fatalf("built %d sequences, oracle %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seed != w.Seed || g.Iter != w.Iter || g.Thresh != w.Thresh || g.Bytes != w.Bytes {
			t.Fatalf("sequence %d: got %v/%d/%v/%dB, oracle %v/%d/%v/%dB",
				i, g.Seed, g.Iter, g.Thresh, g.Bytes, w.Seed, w.Iter, w.Thresh, w.Bytes)
		}
		if !slices.Equal(g.Blocks, w.Blocks) {
			t.Fatalf("sequence %d blocks differ:\n got %v\nwant %v", i, g.Blocks, w.Blocks)
		}
	}
	if !slices.Equal(gotV, wantV) {
		t.Fatal("visited sets differ from the oracle")
	}
	return got
}

// TestBuildSequencesMatchesNaiveOracle pins the fast builder (epoch-marked
// restart searches, one shared placement-order buffer) to the naive oracle
// on real kernels under both schedules, capped and uncapped.
func TestBuildSequencesMatchesNaiveOracle(t *testing.T) {
	schedules := []struct {
		name  string
		sched Schedule
	}{{"default", DefaultSchedule()}, {"table4", Table4Schedule()}}
	for _, seed := range []int64{1995, 7, 42} {
		k, prof := profiledSeedKernel(t, seed)
		for _, sc := range schedules {
			for _, maxSeqBytes := range []int64{0, 2048} {
				t.Run(fmt.Sprintf("seed%d/%s/cap%d", seed, sc.name, maxSeqBytes), func(t *testing.T) {
					checkAgainstOracle(t, k.Prog, prof, SeedEntries(k.Prog), sc.sched, maxSeqBytes)
				})
			}
		}
	}
}

// TestBuildSequencesMatchesNaiveOracleApplication covers the application
// path: sequences seeded at the mains rather than the kernel seeds.
func TestBuildSequencesMatchesNaiveOracleApplication(t *testing.T) {
	app := appgen.Build("app", 21, appgen.TRFD(), appgen.Fsck())
	tr := &trace.Trace{Name: "t", OS: app.Prog}
	w := trace.NewWalker(app.Prog, trace.DomainOS, rand.New(rand.NewSource(2)), nil)
	for i := 0; i < 40; i++ {
		tr.Events = w.WalkInvocation(app.Mains[i%len(app.Mains)], tr.Events)
	}
	prof, _ := profile.FromTrace(tr)
	entries := MainEntries(app.Prog, app.Mains)
	for _, maxSeqBytes := range []int64{0, 2048} {
		if seqs := checkAgainstOracle(t, app.Prog, prof, entries, DefaultSchedule(), maxSeqBytes); len(seqs) == 0 {
			t.Fatal("no application sequences built")
		}
	}
}

// TestFindStartTieBreak pins the restart search's choice among equally hot
// candidates: after the hot spine S-A-B is placed, the catch-all pass
// restarts from S for every remaining block. The heaviest reachable block
// wins (z2, three levels down); among the equal-weight rest the first one
// reached in breadth-first order wins — x1 at depth 1 before y1 and y2 at
// depth 2 (in arc order), before z1 at depth 3. A depth-first search, or
// a tie-break preferring the last candidate seen, orders them differently.
func TestFindStartTieBreak(t *testing.T) {
	p := program.New("ties")
	r := p.AddRoutine("seed")
	node := map[string]program.BlockID{}
	for _, n := range []string{"S", "A", "B", "x1", "y1", "y2", "z1", "z2"} {
		node[n] = p.AddBlock(r, 16)
	}
	arcW := map[string][]uint64{}
	arc := func(from, to string, w uint64) {
		p.AddArc(node[from], node[to], program.ArcBranch, 0)
		arcW[from] = append(arcW[from], w)
	}
	arc("S", "A", 90)
	arc("S", "x1", 10)
	arc("A", "B", 80)
	arc("A", "y1", 10)
	arc("A", "y2", 10)
	arc("B", "z1", 10)
	arc("B", "z2", 12)
	prof := profile.New(p)
	for n, w := range map[string]uint64{"S": 100, "A": 100, "B": 100, "x1": 10, "y1": 10, "y2": 10, "z1": 10, "z2": 12} {
		prof.Block[node[n]] = w
	}
	for n, ws := range arcW {
		copy(prof.Arc[node[n]], ws)
	}
	p.Seeds[program.SeedInterrupt] = r

	var hot, all [program.NumSeedClasses]Thresh
	for c := range hot {
		hot[c], all[c] = inactive, inactive
	}
	hot[program.SeedInterrupt] = Thresh{Exec: 0.2, Branch: 0.1}
	all[program.SeedInterrupt] = Thresh{}
	seqs := checkAgainstOracle(t, p, prof, SeedEntries(p), Schedule{hot, all}, 0)

	rev := map[program.BlockID]string{}
	for n, b := range node {
		rev[b] = n
	}
	var got [][]string
	for _, s := range seqs {
		var names []string
		for _, b := range s.Blocks {
			names = append(names, rev[b])
		}
		got = append(got, names)
	}
	want := [][]string{{"S", "A", "B"}, {"z2", "x1", "y1", "y2", "z1"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sequences = %v, want %v", got, want)
	}
}

// maxBuildAllocs bounds the heap allocations of one BuildSequences call.
// It is a constant: the builder's state is allocated once per build, its
// scratch buffers grow geometrically, and every sequence is a window of one
// shared placement-order array — nothing is allocated per restart search or
// per sequence.
const maxBuildAllocs = 64

// TestBuildSequencesAllocations gates the allocation-free restart search:
// the seed-1995 kernel's build runs more findStart restarts than the bound
// allows allocations, so even one allocation per restart fails the test
// (the map-based oracle makes thousands).
func TestBuildSequencesAllocations(t *testing.T) {
	k, prof := profiledSeedKernel(t, 1995)
	entries, sched := SeedEntries(k.Prog), DefaultSchedule()
	if _, _, restarts := naiveBuildSequencesCapped(k.Prog, prof, entries, sched, 0); restarts <= maxBuildAllocs {
		t.Fatalf("only %d restart searches; the fixture cannot expose per-restart allocations", restarts)
	}
	allocs := testing.AllocsPerRun(3, func() {
		BuildSequences(k.Prog, prof, entries, sched)
	})
	if allocs > maxBuildAllocs {
		t.Fatalf("BuildSequences made %.0f allocations, want at most %d", allocs, maxBuildAllocs)
	}
}
