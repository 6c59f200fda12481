package core

import (
	"fmt"
	"testing"

	"sentinel/internal/dataflow"
	"sentinel/internal/depgraph"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// reduceReference is depgraph's Reduce as it was written before the
// single-pass version, kept as the oracle for its edges: one linear
// removeEdge scan of the branch's Out list per removed edge, and a
// LiveAtTaken lookup per edge. It leaves the unprotected marking to
// Reduce, which shares that code.
func reduceReference(g *depgraph.Graph, lv *dataflow.Liveness, md machine.Desc) {
	for _, nd := range g.Nodes {
		in := nd.Instr
		if !md.AllowSpeculative(in.Op) {
			continue
		}
		var keep []*depgraph.Edge
		for _, e := range nd.In {
			if e.Kind == depgraph.Control && e.From.Index < nd.Index && ir.IsBranch(e.From.Instr.Op) {
				if md.Model == machine.Boosting {
					if branchesBetween(g.Block, e.From.Index, nd.Index) <= md.BoostLevels {
						g.RemovedControl++
						e.From.Out = removeEdge(e.From.Out, e)
						continue
					}
					keep = append(keep, e)
					continue
				}
				d, hasDest := in.Def()
				if !hasDest || !lv.LiveAtTaken(g.Block, e.From.Index).Has(d) {
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

// branchesBetween counts conditional branches in b.Instrs[from:to].
func branchesBetween(b *prog.Block, from, to int) int {
	n := 0
	for i := from; i < to && i < len(b.Instrs); i++ {
		if ir.IsBranch(b.Instrs[i].Op) {
			n++
		}
	}
	return n
}

func removeEdge(edges []*depgraph.Edge, e *depgraph.Edge) []*depgraph.Edge {
	for i, x := range edges {
		if x == e {
			return append(edges[:i], edges[i+1:]...)
		}
	}
	return edges
}

// sameEdges reports the first difference between two edge sequences of
// graphs built from the same block.
func sameEdges(got, want []*depgraph.Edge) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d edges, reference %d", len(got), len(want))
	}
	for i, e := range got {
		r := want[i]
		if e.From.ID != r.From.ID || e.To.ID != r.To.ID || e.Kind != r.Kind || e.Delay != r.Delay {
			return fmt.Errorf("edge %d: %d->%d %v/%d, reference %d->%d %v/%d", i,
				e.From.ID, e.To.ID, e.Kind, e.Delay, r.From.ID, r.To.ID, r.Kind, r.Delay)
		}
	}
	return nil
}

// TestReduceMatchesReference builds every block of every workload kernel
// twice, exactly as Schedule prepares it, and reduces one graph with Reduce
// and the other with reduceReference: each node's In and Out sequences and
// RemovedControl must be identical, for every model at widths 2, 4 and 8,
// with and without recovery.
func TestReduceMatchesReference(t *testing.T) {
	removed := 0
	for _, k := range formKernels(t) {
		for _, width := range []int{2, 4, 8} {
			for _, model := range []machine.Model{machine.Restricted, machine.General,
				machine.Sentinel, machine.SentinelStores, machine.Boosting} {
				for _, md := range []machine.Desc{machine.Base(width, model), machine.Base(width, model).WithRecovery()} {
					if md.Validate() != nil {
						continue // recovery does not apply to boosting
					}
					q, lv, pv, _, err := prepare(k.f, md)
					if err != nil {
						t.Fatal(err)
					}
					for _, b := range q.Blocks {
						g := depgraph.Build(b, lv, pv)
						g.Reduce(md)
						rg := depgraph.Build(b, lv, pv)
						reduceReference(rg, lv, md)
						where := fmt.Sprintf("%s %v recovery=%v block %q", k.name, md.Model, md.Recovery, b.Label)
						if g.RemovedControl != rg.RemovedControl {
							t.Fatalf("%s: RemovedControl %d, reference %d", where, g.RemovedControl, rg.RemovedControl)
						}
						removed += g.RemovedControl
						for i, nd := range g.Nodes {
							if err := sameEdges(nd.In, rg.Nodes[i].In); err != nil {
								t.Fatalf("%s node %d In: %v", where, i, err)
							}
							if err := sameEdges(nd.Out, rg.Nodes[i].Out); err != nil {
								t.Fatalf("%s node %d Out: %v", where, i, err)
							}
						}
					}
				}
			}
		}
	}
	if removed == 0 {
		t.Fatal("no control dependence was removed anywhere: the comparison is vacuous")
	}
}
