package program

// Graphviz export of basic-block flow graphs, in the style of the paper's
// Figure 9: one cluster per routine, nodes labelled with block index and
// weight, call edges dashed. Used for debugging generated kernels and for
// documenting placement decisions.

import (
	"fmt"
	"io"
)

// DotOptions controls WriteDot.
type DotOptions struct {
	// Routines restricts the graph to these routines (nil = all). Call
	// edges to routines outside the set render as stub nodes.
	Routines []RoutineID
	// Weights holds per-block execution counts (a profile's Block slice)
	// to label nodes with; nil renders every block with weight 0.
	Weights []uint64
	// HideUnexecuted omits blocks with zero weight.
	HideUnexecuted bool
}

// WriteDot writes the program's flow graph in Graphviz dot syntax.
func (p *Program) WriteDot(w io.Writer, opts DotOptions) error {
	include := make(map[RoutineID]bool)
	if opts.Routines == nil {
		for i := range p.Routines {
			include[RoutineID(i)] = true
		}
	} else {
		for _, r := range opts.Routines {
			if r < 0 || int(r) >= len(p.Routines) {
				return fmt.Errorf("program: dot: routine %d out of range", r)
			}
			include[r] = true
		}
	}
	if opts.Weights != nil && len(opts.Weights) != len(p.Blocks) {
		return fmt.Errorf("program: dot: %d weights for %d blocks", len(opts.Weights), len(p.Blocks))
	}
	weight := func(b BlockID) uint64 {
		if opts.Weights == nil {
			return 0
		}
		return opts.Weights[b]
	}
	show := func(b BlockID) bool {
		if !include[p.Block(b).Routine] {
			return false
		}
		return !opts.HideUnexecuted || weight(b) > 0
	}

	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("digraph %q {\n  node [shape=box, fontsize=10];\n", p.Name)
	for ri := range p.Routines {
		r := RoutineID(ri)
		if !include[r] {
			continue
		}
		rt := p.Routine(r)
		pr("  subgraph \"cluster_%d\" {\n    label=%q;\n", ri, rt.Name)
		for local, b := range rt.Blocks {
			if !show(b) {
				continue
			}
			w := weight(b)
			style := ""
			if w == 0 {
				style = ", style=dotted"
			}
			pr("    n%d [label=\"%s.%d\\nw=%d\"%s];\n", b, rt.Name, local, w, style)
		}
		pr("  }\n")
	}
	// Stub nodes for call targets outside the included set.
	stubs := make(map[RoutineID]bool)
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		if !show(BlockID(bi)) {
			continue
		}
		for _, a := range b.Out {
			if show(a.To) {
				pr("  n%d -> n%d [label=\"%.2f\"];\n", bi, a.To, a.Prob)
			}
		}
		if b.HasCall {
			callee := b.Call.Callee
			entry := p.Routine(callee).Entry
			if show(entry) {
				pr("  n%d -> n%d [style=dashed];\n", bi, entry)
			} else if !stubs[callee] {
				stubs[callee] = true
				pr("  r%d [label=%q, shape=ellipse, style=dashed];\n", callee, p.Routine(callee).Name)
			}
			if !show(entry) {
				pr("  n%d -> r%d [style=dashed];\n", bi, callee)
			}
			if b.Call.Cont != NoBlock && show(b.Call.Cont) {
				pr("  n%d -> n%d [style=dotted, label=ret];\n", bi, b.Call.Cont)
			}
		}
	}
	pr("}\n")
	return err
}
