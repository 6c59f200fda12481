package core

import (
	"fmt"
	"testing"

	"sentinel/internal/alias"
	"sentinel/internal/dataflow"
	"sentinel/internal/depgraph"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// reduceModels lists every model at widths 2, 4 and 8, with and without
// recovery where it applies.
func reduceModels() []machine.Desc {
	var out []machine.Desc
	for _, width := range []int{2, 4, 8} {
		for _, model := range []machine.Model{machine.Restricted, machine.General,
			machine.Sentinel, machine.SentinelStores, machine.Boosting} {
			for _, md := range []machine.Desc{machine.Base(width, model), machine.Base(width, model).WithRecovery()} {
				if md.Validate() == nil { // recovery does not apply to boosting
					out = append(out, md)
				}
			}
		}
	}
	return out
}

// closure returns the implied constraint set of g: c[u*n+v] is the longest
// path delay from node u to node v, or -1 when v is unreachable from u.
// Every edge runs from a smaller to a larger ID, so one backward pass over
// the nodes computes it.
func closure(g *depgraph.Graph) []int32 {
	n := len(g.Nodes)
	c := make([]int32, n*n)
	for i := range c {
		c[i] = -1
	}
	for u := n - 1; u >= 0; u-- {
		row := c[u*n : (u+1)*n]
		row[u] = 0
		for _, e := range g.Nodes[u].Out {
			to := e.To.ID
			for v, d := range c[to*n : (to+1)*n] {
				if d >= 0 && int32(e.Delay)+d > row[v] {
					row[v] = int32(e.Delay) + d
				}
			}
		}
	}
	return c
}

// matchReduced builds block b sparse (Build) and dense (BuildReference,
// the seed construction, reduced edge by edge), reduces both for md, and
// fails unless they imply the same constraints — for every pair of nodes,
// the same reachability and the same longest-path delay — and agree on
// RemovedControl and the unprotected marks. It returns the dense edges
// removed and the pairs with a positive delay.
func matchReduced(t *testing.T, where string, b *prog.Block, lv *dataflow.Liveness, pv *alias.Provenance, md machine.Desc) (removed, pairs int) {
	t.Helper()
	g := depgraph.Build(b, lv, pv)
	g.Reduce(md)
	rg := depgraph.BuildReference(b, lv, pv)
	rg.Reduce(md)
	defer g.Release()
	defer rg.Release()
	if g.RemovedControl != rg.RemovedControl {
		t.Fatalf("%s: RemovedControl %d, reference %d", where, g.RemovedControl, rg.RemovedControl)
	}
	for i, nd := range g.Nodes {
		if nd.Unprotected != rg.Nodes[i].Unprotected {
			t.Fatalf("%s node %d: unprotected %v, reference %v", where, i, nd.Unprotected, rg.Nodes[i].Unprotected)
		}
	}
	got, want := closure(g), closure(rg)
	n := len(g.Nodes)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: longest path %d -> %d is %d, reference %d", where, i/n, i%n, got[i], want[i])
		}
		if got[i] > 0 {
			pairs++
		}
	}
	return g.RemovedControl, pairs
}

// TestReduceMatchesReference compares the sparse and the dense graph of
// every block of every workload kernel, prepared exactly as Schedule
// prepares it, after Reduce for every model at widths 2, 4 and 8, with and
// without recovery (matchReduced).
func TestReduceMatchesReference(t *testing.T) {
	removed, pairs := 0, 0
	for _, k := range formKernels(t) {
		for _, md := range reduceModels() {
			q, lv, pv, _, err := prepare(k.f, md)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range q.Blocks {
				r, n := matchReduced(t, fmt.Sprintf("%s %v w%d recovery=%v block %q", k.name, md.Model, md.IssueWidth, md.Recovery, b.Label), b, lv, pv, md)
				removed += r
				pairs += n
			}
		}
	}
	t.Logf("%d control dependences removed, %d constrained pairs compared", removed, pairs)
	if removed == 0 || pairs == 0 {
		t.Fatal("no control dependence was removed or no constraint compared: the comparison is vacuous")
	}
}

// TestReduceMatchesReferenceAroundCalls covers what the kernels lack: a
// call inside a superblock with instructions after it, trapping and not,
// below one branch and above another, so the sparse graph needs the
// upward edge from the call as well as the one from a branch.
func TestReduceMatchesReferenceAroundCalls(t *testing.T) {
	p := prog.NewProgram()
	sb := p.AddBlock("main",
		ir.BRI(ir.Beq, ir.R(2), 0, "out"),    // 0
		ir.LOAD(ir.Ld, ir.R(1), ir.R(3), 0),  // 1
		ir.JSR("putint", ir.R(1)),            // 2
		ir.LOAD(ir.Ld, ir.R(4), ir.R(3), 8),  // 3: traps, after the call
		ir.ALUI(ir.Add, ir.R(5), ir.R(4), 1), // 4
		ir.BRI(ir.Beq, ir.R(5), 0, "out"),    // 5
		ir.LOAD(ir.Ld, ir.R(6), ir.R(3), 16), // 6
		ir.JSR("putint", ir.R(6)),            // 7
		ir.ALUI(ir.Add, ir.R(7), ir.R(6), 2), // 8: after the call, below a branch
		ir.STORE(ir.St, ir.R(3), 0, ir.R(7)), // 9
		ir.HALT(),
	)
	sb.Superblock = true
	p.AddBlock("out", ir.JSR("putint", ir.R(4)), ir.HALT())
	p.Layout()
	for _, md := range reduceModels() {
		q, lv, pv, _, err := prepare(p, md)
		if err != nil {
			t.Fatal(err)
		}
		matchReduced(t, fmt.Sprintf("%v w%d recovery=%v", md.Model, md.IssueWidth, md.Recovery), q.Blocks[0], lv, pv, md)
	}
}

// TestSparseControlEdges checks the sparse form's size on every kernel
// block, after Build and after Reduce under every model: each control
// instruction has at most one upward control edge, and every other
// instruction at most one from a branch, one from a call (only a call can
// sit inside a superblock without ending it) and one downward.
func TestSparseControlEdges(t *testing.T) {
	check := func(where string, g *depgraph.Graph) {
		for _, nd := range g.Nodes {
			fromBranch, fromOther, down := 0, 0, 0
			for _, e := range nd.In {
				switch {
				case e.Kind != depgraph.Control || !ir.IsControl(e.From.Instr.Op):
					// Not upward: a data edge, or a downward edge into a
					// control instruction.
				case ir.IsBranch(e.From.Instr.Op):
					fromBranch++
				case e.From.Instr.Op == ir.Jsr:
					fromOther++
				default:
					t.Fatalf("%s: node %d has an upward control edge from %v", where, nd.ID, e.From.Instr)
				}
			}
			for _, e := range nd.Out {
				if e.Kind == depgraph.Control && !ir.IsControl(nd.Instr.Op) {
					down++
				}
			}
			if ir.IsControl(nd.Instr.Op) && fromBranch+fromOther > 1 {
				t.Fatalf("%s: control %d has %d upward control edges", where, nd.ID, fromBranch+fromOther)
			}
			if fromBranch > 1 || fromOther > 1 || down > 1 {
				t.Fatalf("%s: node %d has %d+%d upward and %d downward control edges", where, nd.ID, fromBranch, fromOther, down)
			}
		}
	}
	for _, k := range formKernels(t) {
		for _, md := range reduceModels() {
			q, lv, pv, _, err := prepare(k.f, md)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range q.Blocks {
				where := fmt.Sprintf("%s %v w%d recovery=%v block %q", k.name, md.Model, md.IssueWidth, md.Recovery, b.Label)
				g := depgraph.Build(b, lv, pv)
				check(where+" built", g)
				g.Reduce(md)
				check(where+" reduced", g)
				g.Release()
			}
		}
	}
}
