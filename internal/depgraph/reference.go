package depgraph

// The dense control-dependence construction and its reduction, kept as the
// oracle for the sparse form Build records: the reference scheduler
// (core.ScheduleReference) schedules on these graphs, and the reduction
// tests compare the constraints both forms imply. No production path
// builds a dense graph.

import (
	"sentinel/internal/alias"
	"sentinel/internal/dataflow"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// BuildReference is Build with the dense control dependences: an edge from
// every control instruction to every later instruction, and from every
// instruction that may not sink below a control instruction to every later
// one that needs it. Reduce on the result removes dense edges one by one.
func BuildReference(b *prog.Block, lv *dataflow.Liveness, pv *alias.Provenance) *Graph {
	return buildGraph(b, lv, pv, true)
}

func (bd *builder) denseControlDeps() {
	g := bd.g
	for ci, c := range g.Nodes {
		if !ir.IsControl(c.Instr.Op) {
			continue
		}
		for i := ci + 1; i < len(g.Nodes); i++ {
			delay := 0
			if ir.IsBranch(c.Instr.Op) && ir.Traps(g.Nodes[i].Instr.Op) {
				delay = machine.Latency(c.Instr.Op)
			}
			bd.rec(ci, i, Control, delay)
		}
		live := g.takenLive[ci]
		uncond := c.Instr.Op == ir.Jmp || c.Instr.Op == ir.Halt
		for i := 0; i < ci; i++ {
			in := g.Nodes[i].Instr
			if ir.IsControl(in.Op) {
				continue // already ordered via the control edge above
			}
			need := uncond || ir.IsStore(in.Op) || ir.Traps(in.Op)
			if !need {
				if d, ok := in.Def(); ok && live.Has(d) {
					need = true
				}
			}
			if need {
				bd.rec(i, ci, Control, 0)
			}
		}
	}
}

// reduceDense removes, edge by edge, every control dependence from a branch
// to a later instruction the model lets move above it, unlinking each from
// the branch's Out list with a linear scan.
func (g *Graph) reduceDense(md machine.Desc) {
	for _, nd := range g.Nodes {
		in := nd.Instr
		if !md.AllowSpeculative(in.Op) {
			continue
		}
		d, hasDest := in.Def()
		keep := nd.In[:0]
		for _, e := range nd.In {
			if e.Kind == Control && e.From.Index < nd.Index && ir.IsBranch(e.From.Instr.Op) {
				var drop bool
				if md.Model == machine.Boosting {
					drop = g.branchesBetween(e.From.Index, nd.Index) <= md.BoostLevels
				} else {
					drop = !hasDest || !g.takenLive[e.From.Index].Has(d)
				}
				if drop {
					g.RemovedControl++
					e.From.Out = removeEdge(e.From.Out, e)
					continue
				}
			}
			keep = append(keep, e)
		}
		nd.In = keep
	}
}

// branchesBetween counts conditional branches with original index in
// [from, to): the number of branches an instruction at to crosses when
// hoisted above the branch at from.
func (g *Graph) branchesBetween(from, to int) int {
	n := 0
	for _, nd := range g.Nodes[from:to] {
		if ir.IsBranch(nd.Instr.Op) {
			n++
		}
	}
	return n
}

func removeEdge(edges []*Edge, e *Edge) []*Edge {
	for i, x := range edges {
		if x == e {
			return append(edges[:i], edges[i+1:]...)
		}
	}
	return edges
}
