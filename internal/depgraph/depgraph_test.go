package depgraph

import (
	"slices"
	"testing"

	"sentinel/internal/alias"
	"sentinel/internal/dataflow"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// figure1 builds the paper's Figure 1(a) code fragment as a superblock:
//
//	A: if (r2==0) goto L1
//	B: r1 = mem(r2+0)
//	C: r3 = mem(r4+0)
//	D: r4 = r1+1
//	E: r5 = r3*9
//	F: mem(r2+4) = r4
//
// L1 uses none of r1,r3,r4,r5, so all four candidates may be speculated.
func figure1() (*prog.Program, *prog.Block) {
	p := prog.NewProgram()
	sb := p.AddBlock("main",
		ir.BRI(ir.Beq, ir.R(2), 0, "L1"),     // A
		ir.LOAD(ir.Ld, ir.R(1), ir.R(2), 0),  // B
		ir.LOAD(ir.Ld, ir.R(3), ir.R(4), 0),  // C
		ir.ALUI(ir.Add, ir.R(4), ir.R(1), 1), // D
		ir.ALUI(ir.Mul, ir.R(5), ir.R(3), 9), // E
		ir.STORE(ir.St, ir.R(2), 4, ir.R(4)), // F
		ir.HALT(),
	)
	sb.Superblock = true
	p.AddBlock("L1", ir.HALT())
	return p, sb
}

func build(t *testing.T, md machine.Desc) (*Graph, *prog.Block) {
	t.Helper()
	p, sb := figure1()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	lv := dataflow.Compute(p)
	g := Build(sb, lv, nil)
	g.Reduce(md)
	return g, sb
}

// edge reports whether an edge from->to of the given kind exists.
func edge(g *Graph, from, to int, k Kind) bool {
	for _, e := range g.Nodes[from].Out {
		if e.To == g.Nodes[to] && e.Kind == k {
			return true
		}
	}
	return false
}

const (
	iA = iota
	iB
	iC
	iD
	iE
	iF
	iHalt
)

func TestFigure1Unprotected(t *testing.T) {
	g, _ := build(t, machine.Base(8, machine.Sentinel))
	// Per the paper: "instructions E and F are identified as unprotected,
	// since they are the last uses of the potential trap-causing
	// instructions B and C".
	wantUnprotected := map[int]bool{iA: false, iB: false, iC: false,
		iD: false, iE: true, iF: true}
	for idx, want := range wantUnprotected {
		if got := g.Nodes[idx].Unprotected; got != want {
			t.Errorf("node %d (%v): unprotected = %v, want %v",
				idx, g.Nodes[idx].Instr, got, want)
		}
	}
}

func TestFigure1DataDeps(t *testing.T) {
	g, _ := build(t, machine.Base(8, machine.Sentinel))
	if !edge(g, iB, iD, Flow) {
		t.Error("missing flow B->D (r1)")
	}
	if !edge(g, iC, iE, Flow) {
		t.Error("missing flow C->E (r3)")
	}
	if !edge(g, iD, iF, Flow) {
		t.Error("missing flow D->F (r4)")
	}
	// C reads r4, D writes r4: anti dependence C->D.
	if !edge(g, iC, iD, Anti) {
		t.Error("missing anti C->D (r4)")
	}
}

func TestFigure1ReductionByModel(t *testing.T) {
	// Sentinel: control deps A->B, A->C, A->D, A->E removed (dest dead at
	// L1); A->F (store) kept.
	g, _ := build(t, machine.Base(8, machine.Sentinel))
	for _, idx := range []int{iB, iC, iD, iE} {
		if edge(g, iA, idx, Control) {
			t.Errorf("sentinel: control A->%d should be removed", idx)
		}
	}
	if !edge(g, iA, iF, Control) {
		t.Error("sentinel: store F must stay below the branch")
	}

	// Restricted: loads B, C stay control-dependent (they trap); D and E do
	// not trap and may be hoisted — but they depend on B/C via flow.
	gr, _ := build(t, machine.Base(8, machine.Restricted))
	for _, idx := range []int{iB, iC} {
		if !edge(gr, iA, idx, Control) {
			t.Errorf("restricted: control A->%d must remain", idx)
		}
	}
	for _, idx := range []int{iD, iE} {
		if edge(gr, iA, idx, Control) {
			t.Errorf("restricted: control A->%d should be removed (non-trapping)", idx)
		}
	}

	// SentinelStores: the store's control dependence is removed too.
	gt, _ := build(t, machine.Base(8, machine.SentinelStores))
	if edge(gt, iA, iF, Control) {
		t.Error("sentinel+stores: store control dependence must be removed")
	}
	if !gt.Nodes[iF].Unprotected {
		t.Error("sentinel+stores: store must be unprotected")
	}
}

func TestReductionKeepsLiveDest(t *testing.T) {
	// If L1 uses r1, the load B must NOT be hoisted above the branch.
	p := prog.NewProgram()
	sb := p.AddBlock("main",
		ir.BRI(ir.Beq, ir.R(2), 0, "L1"),
		ir.LOAD(ir.Ld, ir.R(1), ir.R(2), 0),
		ir.HALT(),
	)
	sb.Superblock = true
	p.AddBlock("L1", ir.JSR("putint", ir.R(1)), ir.HALT())
	lv := dataflow.Compute(p)
	g := Build(sb, lv, nil)
	g.Reduce(machine.Base(8, machine.Sentinel))
	if !edge(g, 0, 1, Control) {
		t.Error("restriction (1): dest live on taken path must keep control dep")
	}
}

func TestDownwardMotionEdges(t *testing.T) {
	// li r9 (live at L1) before the branch must not sink below it; the store
	// and the trapping load must not either.
	p := prog.NewProgram()
	sb := p.AddBlock("main",
		ir.LI(ir.R(9), 5),                    // 0: live at L1
		ir.LOAD(ir.Ld, ir.R(1), ir.R(2), 0),  // 1: trapping
		ir.STORE(ir.St, ir.R(2), 8, ir.R(1)), // 2: store
		ir.LI(ir.R(8), 1),                    // 3: dead at L1
		ir.BRI(ir.Beq, ir.R(2), 0, "L1"),     // 4
		ir.HALT(),                            // 5
	)
	sb.Superblock = true
	p.AddBlock("L1", ir.JSR("putint", ir.R(9)), ir.HALT())
	lv := dataflow.Compute(p)
	g := Build(sb, lv, nil)
	for _, idx := range []int{0, 1, 2} {
		if !edge(g, idx, 4, Control) {
			t.Errorf("node %d must be control-ordered before the exit branch", idx)
		}
	}
	if edge(g, 3, 4, Control) {
		t.Error("dead non-trapping def may sink below the branch")
	}
}

func TestMemoryDisambiguation(t *testing.T) {
	p := prog.NewProgram()
	sb := p.AddBlock("main",
		ir.STORE(ir.St, ir.R(1), 0, ir.R(2)), // 0: st 0(r1)
		ir.LOAD(ir.Ld, ir.R(3), ir.R(1), 8),  // 1: ld 8(r1)  disjoint
		ir.LOAD(ir.Ld, ir.R(4), ir.R(1), 0),  // 2: ld 0(r1)  overlaps store 0
		ir.LOAD(ir.Ld, ir.R(5), ir.R(6), 0),  // 3: ld 0(r6)  unknown base: dependent
		ir.ALUI(ir.Add, ir.R(1), ir.R(1), 8), // 4: redefines r1
		ir.STORE(ir.St, ir.R(1), 0, ir.R(2)), // 5: st 0(r1') new version: dependent on all
		ir.HALT(),
	)
	sb.Superblock = true
	lv := dataflow.Compute(p)
	g := Build(sb, lv, nil)
	if edge(g, 0, 1, Mem) {
		t.Error("disjoint same-base accesses must be independent")
	}
	if !edge(g, 0, 2, Mem) {
		t.Error("overlapping same-base accesses must be dependent")
	}
	if !edge(g, 0, 3, Mem) {
		t.Error("different-base accesses must be conservatively dependent")
	}
	// Affine tracking: the store after "add r1, r1, 8" provably writes
	// [8,16) of the same chain, disjoint from the load of [0,8).
	if edge(g, 2, 5, Mem) {
		t.Error("affine same-base accesses with disjoint ranges must be independent")
	}
	// But it still conflicts with the load at offset 8.
	if !edge(g, 1, 5, Mem) {
		t.Error("affine overlapping accesses must stay dependent")
	}
}

func TestMemoryDisambiguationProvenance(t *testing.T) {
	// With provenance, stores through one LI-rooted pointer do not conflict
	// with loads through another.
	p := prog.NewProgram()
	sb := p.AddBlock("main",
		ir.LI(ir.R(1), 0x1000),
		ir.LI(ir.R(2), 0x2000),
		ir.STORE(ir.St, ir.R(1), 0, ir.R(3)), // 2
		ir.LOAD(ir.Ld, ir.R(4), ir.R(2), 0),  // 3
		ir.HALT(),
	)
	sb.Superblock = true
	lv := dataflow.Compute(p)
	pv := alias.Analyze(p)
	g := Build(sb, lv, pv)
	if edge(g, 2, 3, Mem) {
		t.Error("different-root accesses must be independent under provenance")
	}
	// Without provenance they remain dependent.
	g2 := Build(p.Blocks[0], lv, nil)
	if !edge(g2, 2, 3, Mem) {
		t.Error("without provenance, different bases must stay dependent")
	}
}

func TestHomeBlocks(t *testing.T) {
	g, _ := build(t, machine.Base(8, machine.Sentinel))
	// A is at index 0; B..F live in the home block (0, 6].
	for _, idx := range []int{iB, iC, iD, iE, iF} {
		nd := g.Nodes[idx]
		if nd.HomeStart != iA || nd.HomeEnd != iHalt {
			t.Errorf("node %d home = (%d,%d), want (%d,%d)",
				idx, nd.HomeStart, nd.HomeEnd, iA, iHalt)
		}
	}
	if g.Nodes[iA].HomeStart != -1 || g.Nodes[iA].HomeEnd != iA {
		t.Errorf("branch home = (%d,%d)", g.Nodes[iA].HomeStart, g.Nodes[iA].HomeEnd)
	}
}

func TestInsertSentinel(t *testing.T) {
	g, _ := build(t, machine.Base(8, machine.Sentinel))
	e := g.Nodes[iE]
	j := g.InsertSentinel(e)
	if !j.Sentinel || j.Protects != e || j.Instr.Op != ir.Check {
		t.Fatalf("sentinel node malformed: %+v", j)
	}
	if j.Instr.Src1 != ir.R(5) {
		t.Errorf("check source = %v, want r5", j.Instr.Src1)
	}
	var haveFlow, haveHomeStart, haveHomeEnd bool
	for _, in := range j.In {
		if in.From == e && in.Kind == Flow {
			haveFlow = true
		}
		if in.From == g.Nodes[iA] && in.Kind == Control {
			haveHomeStart = true
		}
	}
	for _, out := range j.Out {
		if out.To == g.Nodes[iHalt] && out.Kind == Control {
			haveHomeEnd = true
		}
	}
	if !haveFlow || !haveHomeStart || !haveHomeEnd {
		t.Errorf("sentinel edges: flow=%v homeStart=%v homeEnd=%v",
			haveFlow, haveHomeStart, haveHomeEnd)
	}
}

func TestInsertConfirm(t *testing.T) {
	g, _ := build(t, machine.Base(8, machine.SentinelStores))
	f := g.Nodes[iF]
	j := g.InsertConfirm(f)
	if !j.Sentinel || j.Protects != f || j.Instr.Op != ir.ConfirmSt {
		t.Fatalf("confirm node malformed: %+v", j)
	}
	if j.Instr.Imm != -1 {
		t.Errorf("confirm index must start unresolved, got %d", j.Instr.Imm)
	}
}

func TestGraphIsAcyclicAndForward(t *testing.T) {
	g, _ := build(t, machine.Base(8, machine.SentinelStores))
	for _, nd := range g.Nodes {
		for _, e := range nd.Out {
			if !e.From.Sentinel && !e.To.Sentinel && e.From.Index >= e.To.Index {
				t.Errorf("backward edge %d -> %d (%v)", e.From.Index, e.To.Index, e.Kind)
			}
		}
	}
}

func TestReduceTwicePanics(t *testing.T) {
	g, _ := build(t, machine.Base(8, machine.Sentinel))
	defer func() {
		if recover() == nil {
			t.Error("second Reduce must panic")
		}
	}()
	g.Reduce(machine.Base(8, machine.Sentinel))
}

func TestRemovedControlCount(t *testing.T) {
	g, _ := build(t, machine.Base(8, machine.Sentinel))
	if g.RemovedControl != 4 { // B, C, D, E
		t.Errorf("RemovedControl = %d, want 4", g.RemovedControl)
	}
	gr, _ := build(t, machine.Base(8, machine.Restricted))
	if gr.RemovedControl != 2 { // D, E only
		t.Errorf("restricted RemovedControl = %d, want 2", gr.RemovedControl)
	}
}

// TestStoreOrdersAgainstPriorAccesses is the regression test for the
// slice-aliasing hazard in memoryDeps: the seed walked prior accesses via
// append(loads, stores...), which — once loads has spare capacity — copies
// the stores into loads' backing array, where a later load append can clobber
// them. The builder must record a memory edge from EVERY prior may-aliasing
// load and store into each store, with interleaved appends in between.
func TestStoreOrdersAgainstPriorAccesses(t *testing.T) {
	p := prog.NewProgram()
	sb := p.AddBlock("main",
		ir.LOAD(ir.Ld, ir.R(1), ir.R(2), 0),   // 0: load, base r2
		ir.LOAD(ir.Ld, ir.R(3), ir.R(4), 0),   // 1: load, base r4
		ir.LOAD(ir.Ld, ir.R(5), ir.R(6), 0),   // 2: load, base r6
		ir.STORE(ir.St, ir.R(7), 0, ir.R(1)),  // 3: store, base r7
		ir.LOAD(ir.Ld, ir.R(9), ir.R(10), 0),  // 4: load, base r10
		ir.STORE(ir.St, ir.R(11), 0, ir.R(3)), // 5: store, base r11
		ir.HALT(),
	)
	sb.Superblock = true
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := Build(sb, dataflow.Compute(p), nil)

	// Distinct bases with no provenance info may alias pairwise.
	for _, from := range []int{0, 1, 2} {
		if !edge(g, from, 3, Mem) {
			t.Errorf("missing mem edge load %d -> store 3", from)
		}
	}
	if !edge(g, 3, 4, Mem) {
		t.Error("missing mem edge store 3 -> load 4")
	}
	for _, from := range []int{0, 1, 2, 3, 4} {
		if !edge(g, from, 5, Mem) {
			t.Errorf("missing mem edge %d -> store 5", from)
		}
	}
}

// TestNodeIDsAreStable pins the dense-index contract: Node.ID equals the
// node's position in g.Nodes, for original and inserted nodes alike, and
// insertion never renumbers existing nodes.
func TestNodeIDsAreStable(t *testing.T) {
	g, _ := build(t, machine.Base(8, machine.Sentinel))
	for i, nd := range g.Nodes {
		if nd.ID != i {
			t.Fatalf("g.Nodes[%d].ID = %d before insertion", i, nd.ID)
		}
	}
	s := g.InsertSentinel(g.Nodes[iE])
	if s.ID != len(g.Nodes)-1 {
		t.Errorf("inserted sentinel ID = %d, want %d", s.ID, len(g.Nodes)-1)
	}
	for i, nd := range g.Nodes {
		if nd.ID != i {
			t.Errorf("g.Nodes[%d].ID = %d after insertion", i, nd.ID)
		}
	}
}

// TestReducedListsStayDisjoint pins the capacity-clamped sub-slice invariant
// through Reduce, which filters In and Out lists in place: appending to any
// node's reduced list (as sentinel insertion and AddAnti do) must leave
// every other node's lists untouched.
func TestReducedListsStayDisjoint(t *testing.T) {
	for _, model := range []machine.Model{machine.Sentinel, machine.SentinelStores, machine.Boosting} {
		g, _ := build(t, machine.Base(8, model))
		snapshot := func() [][2][]*Edge {
			s := make([][2][]*Edge, len(g.Nodes))
			for i, nd := range g.Nodes {
				s[i] = [2][]*Edge{append([]*Edge(nil), nd.In...), append([]*Edge(nil), nd.Out...)}
			}
			return s
		}
		for i, nd := range g.Nodes {
			before := snapshot()
			extra := &Edge{From: nd, To: nd, Kind: Anti}
			nd.In = append(nd.In, extra)
			nd.Out = append(nd.Out, extra)
			for j, other := range g.Nodes {
				if j == i {
					continue
				}
				if !slices.Equal(other.In, before[j][0]) || !slices.Equal(other.Out, before[j][1]) {
					t.Fatalf("%v: appending to node %d's lists changed node %d's", model, i, j)
				}
			}
			nd.In, nd.Out = before[i][0], before[i][1]
		}
	}
}
