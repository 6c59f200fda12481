// Package depgraph builds the dependence graph of a superblock and performs
// the dependence-graph reduction of the sentinel paper's Appendix: removing
// control dependences to enable speculative code motion under the selected
// scheduling model and marking unprotected instructions.
//
// Edge semantics. Every edge carries a Delay:
//
//   - to.cycle >= from.cycle + Delay, and
//   - when both end up in the same cycle (possible only for Delay 0), from
//     must occupy an earlier slot than to.
//
// The simulated machine executes instructions in schedule order with
// immediate architectural effect and scoreboard interlocks for timing, so
// order-preserving 0-delay edges are sufficient for anti, output, memory and
// control dependences, while flow edges carry the producer's latency as a
// performance (not correctness) hint.
//
// Storage layout. Nodes carry a dense ID (position in Graph.Nodes) and live
// in one arena slice; builder state is indexed by register slot rather than
// keyed by ir.Reg maps; and the edges recorded during Build share a single
// backing allocation, with each node's In/Out list a capacity-clamped
// sub-slice so later insertions (sentinels, anti edges discovered during
// scheduling) reallocate instead of clobbering a neighbour's region.
package depgraph

import (
	"fmt"

	"sentinel/internal/alias"
	"sentinel/internal/dataflow"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// Kind classifies a dependence edge.
type Kind uint8

const (
	Flow    Kind = iota // read after write (register)
	Anti                // write after read (register)
	Output              // write after write (register)
	Mem                 // memory ordering (may-alias pairs involving a store)
	Control             // control dependence
)

var kindNames = [...]string{Flow: "flow", Anti: "anti", Output: "output",
	Mem: "mem", Control: "control"}

func (k Kind) String() string { return kindNames[k] }

// Edge is a dependence from From to To.
type Edge struct {
	From, To *Node
	Kind     Kind
	// dropped marks a control edge Reduce removed, so each Out list is
	// compacted in one pass afterwards.
	dropped bool
	Delay   int
}

// Node wraps one instruction of the superblock.
type Node struct {
	Instr *ir.Instr
	// ID is the node's position in Graph.Nodes. It is stable for the life of
	// the graph (nodes are never removed) and dense, so schedulers can keep
	// per-node state in plain slices indexed by ID.
	ID int
	// Index is the original position within the superblock; inserted
	// sentinel nodes get the index of the instruction they protect, and are
	// distinguishable via Sentinel.
	Index int
	// Sentinel marks nodes inserted during scheduling (check_exception or
	// confirm_store) rather than present in the original code.
	Sentinel bool
	// Protects is the node this sentinel was inserted for (nil otherwise).
	Protects *Node

	In  []*Edge // dependences that must be satisfied before this node
	Out []*Edge

	// Unprotected marks instructions whose exception condition has no use
	// within their home block: speculating them requires an explicit
	// sentinel (§3.1, Appendix).
	Unprotected bool

	// HomeStart is the index of the nearest control instruction before this
	// node (-1 if none): the upper boundary of the home block. HomeEnd is
	// the index of the first control instruction at or after this node
	// (len(instrs) if none): the lower boundary.
	HomeStart, HomeEnd int
}

// Graph is the dependence graph of one superblock.
type Graph struct {
	Block *prog.Block
	Nodes []*Node

	// arena backs the nodes in Nodes. It is allocated with room for one
	// inserted sentinel per original instruction (the scheduler inserts at
	// most one check or confirm per speculated instruction), so pointers into
	// it stay valid across InsertSentinel/InsertConfirm.
	arena []Node
	// edges backs every *Edge recorded during Build; In/Out hold pointers
	// into it.
	edges []Edge
	// inBack/outBack are the shared backing arrays the per-node In/Out
	// sub-slices are carved from.
	inBack, outBack []*Edge
	// branchPrefix[i] counts conditional branches at original indices < i.
	branchPrefix []int32
	// takenLive[k] is the set of registers live when the k-th conditional
	// branch (the one at original index i with branchPrefix[i] == k) is
	// taken, looked up once during Build.
	takenLive []dataflow.RegSet

	pv      *alias.Provenance
	reduced bool
	// RemovedControl counts control dependences removed by reduction
	// (reported by ablation experiments).
	RemovedControl int
}

// edgeRec is one dependence recorded during Build, before the shared edge
// backing is allocated.
type edgeRec struct {
	from, to int32
	delay    int32
	kind     Kind
}

// Build constructs the full dependence graph of superblock b (all data,
// memory and control dependences, no reduction). lv must be liveness for the
// program containing b; pv supplies pointer provenance for memory
// disambiguation and may be nil (fully conservative aliasing).
func Build(b *prog.Block, lv *dataflow.Liveness, pv *alias.Provenance) *Graph {
	g := &Graph{Block: b, pv: pv}
	n := len(b.Instrs)
	g.arena = make([]Node, n, 2*n)
	g.Nodes = make([]*Node, n)
	for i, in := range b.Instrs {
		g.arena[i] = Node{Instr: in, ID: i, Index: i, HomeStart: -1, HomeEnd: n}
		g.Nodes[i] = &g.arena[i]
	}
	g.homeBlocks()
	g.branchPrefix = make([]int32, n+1)
	for i, in := range b.Instrs {
		g.branchPrefix[i+1] = g.branchPrefix[i]
		if ir.IsBranch(in.Op) {
			g.branchPrefix[i+1]++
		}
	}
	if nb := g.branchPrefix[n]; nb > 0 {
		g.takenLive = make([]dataflow.RegSet, nb)
	}
	bd := &builder{g: g, lv: lv}
	bd.initSlots()
	bd.registerDeps()
	bd.memoryDeps()
	bd.controlDeps()
	bd.finalize()
	return g
}

func (g *Graph) homeBlocks() {
	last := -1
	for i, nd := range g.Nodes {
		nd.HomeStart = last
		if ir.IsControl(nd.Instr.Op) {
			last = i
		}
	}
	next := len(g.Nodes)
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		nd := g.Nodes[i]
		if ir.IsControl(nd.Instr.Op) {
			// A control instruction ends its own home block.
			nd.HomeEnd = i
		} else {
			nd.HomeEnd = next
		}
		if ir.IsControl(nd.Instr.Op) {
			next = i
		}
	}
}

// builder holds the register-slot-indexed state used while recording edges.
// Physical registers map to [0, NumIntRegs+NumFPRegs) via ir.Reg.Index;
// virtual registers (legal in unallocated input) get slots above that.
type builder struct {
	g    *Graph
	lv   *dataflow.Liveness
	recs []edgeRec
	virt map[ir.Reg]int32
	nSlt int
}

const physSlots = ir.NumIntRegs + ir.NumFPRegs

// initSlots assigns slots to every virtual register appearing in the block
// so per-slot state arrays can be sized once.
func (bd *builder) initSlots() {
	bd.nSlt = physSlots
	for _, nd := range bd.g.Nodes {
		in := nd.Instr
		for _, r := range [3]ir.Reg{in.Dest, in.Src1, in.Src2} {
			if r.Valid() && r.Virtual {
				if bd.virt == nil {
					bd.virt = map[ir.Reg]int32{}
				}
				if _, ok := bd.virt[r]; !ok {
					bd.virt[r] = int32(bd.nSlt)
					bd.nSlt++
				}
			}
		}
	}
}

func (bd *builder) slot(r ir.Reg) int32 {
	if r.Virtual {
		return bd.virt[r]
	}
	return int32(r.Index())
}

func (bd *builder) rec(from, to int, kind Kind, delay int) {
	bd.recs = append(bd.recs, edgeRec{from: int32(from), to: int32(to),
		delay: int32(delay), kind: kind})
}

func (bd *builder) registerDeps() {
	g := bd.g
	lastDef := make([]int32, bd.nSlt)
	for i := range lastDef {
		lastDef[i] = -1
	}
	usesSinceDef := make([][]int32, bd.nSlt)
	for _, nd := range g.Nodes {
		in := nd.Instr
		u1, u2 := in.Uses2()
		for _, u := range [2]ir.Reg{u1, u2} {
			if !u.Valid() {
				continue
			}
			s := bd.slot(u)
			if d := lastDef[s]; d >= 0 {
				bd.rec(int(d), nd.ID, Flow, machine.Latency(g.Nodes[d].Instr.Op))
			}
			usesSinceDef[s] = append(usesSinceDef[s], int32(nd.ID))
		}
		if d, ok := in.Def(); ok {
			s := bd.slot(d)
			if prev := lastDef[s]; prev >= 0 {
				bd.rec(int(prev), nd.ID, Output, 0)
			}
			for _, r := range usesSinceDef[s] {
				if int(r) != nd.ID {
					bd.rec(int(r), nd.ID, Anti, 0)
				}
			}
			lastDef[s] = int32(nd.ID)
			usesSinceDef[s] = usesSinceDef[s][:0]
		}
	}
}

// memRef describes one memory access for disambiguation: base register, its
// definition version at the access, the accumulated affine offset of that
// version, and the byte range.
type memRef struct {
	base    ir.Reg
	version int
	lo, hi  int64
}

// disjoint reports whether two accesses provably do not overlap: the same
// base register within the same affine version chain (constant increments
// keep accesses comparable across unrolled copies) with non-overlapping
// effective ranges, or bases with provably different pointer provenance.
func (g *Graph) disjoint(a, b memRef) bool {
	if a.base == b.base && a.version == b.version && (a.hi <= b.lo || b.hi <= a.lo) {
		return true
	}
	return g.pv != nil && g.pv.Disjoint(a.base, b.base)
}

func (bd *builder) memoryDeps() {
	g := bd.g
	version := make([]int32, bd.nSlt)
	delta := make([]int64, bd.nSlt)
	type access struct {
		ref  memRef
		node int32
	}
	var loads, stores []access
	for _, nd := range g.Nodes {
		in := nd.Instr
		if ir.IsMem(in.Op) {
			s := bd.slot(in.Src1)
			ref := memRef{base: in.Src1, version: int(version[s]),
				lo: in.Imm + delta[s], hi: in.Imm + delta[s] + int64(ir.MemSize(in.Op))}
			if ir.IsStore(in.Op) {
				// A store orders against every prior may-aliasing load and
				// store. The two slices are walked separately: combining them
				// with append(loads, stores...) would extend loads' backing
				// array in place when it has spare capacity, aliasing the
				// combined view with later appends to loads.
				for _, p := range loads {
					if !g.disjoint(p.ref, ref) {
						bd.rec(int(p.node), nd.ID, Mem, 0)
					}
				}
				for _, p := range stores {
					if !g.disjoint(p.ref, ref) {
						bd.rec(int(p.node), nd.ID, Mem, 0)
					}
				}
				stores = append(stores, access{ref, int32(nd.ID)})
			} else {
				for _, p := range stores {
					if !g.disjoint(p.ref, ref) {
						bd.rec(int(p.node), nd.ID, Mem, 0)
					}
				}
				loads = append(loads, access{ref, int32(nd.ID)})
			}
		}
		if d, ok := in.Def(); ok {
			s := bd.slot(d)
			if (in.Op == ir.Add || in.Op == ir.Sub) && !in.Src2.Valid() && in.Src1 == d {
				if in.Op == ir.Add {
					delta[s] += in.Imm
				} else {
					delta[s] -= in.Imm
				}
			} else {
				version[s]++
				delta[s] = 0
			}
		}
	}
}

func (bd *builder) controlDeps() {
	g := bd.g
	for ci, c := range g.Nodes {
		if !ir.IsControl(c.Instr.Op) {
			continue
		}
		// Upward-motion restrictions: control dependence from the control
		// instruction to every later instruction. Reduction may remove
		// these for conditional branches.
		//
		// A non-speculative potentially-trapping instruction must wait for
		// an older conditional branch to RESOLVE (branch latency, 1 cycle):
		// were it issued in the branch's own group, a wrong-path exception
		// would be signalled — precisely the hazard that requires sentinel
		// hardware. Non-trapping instructions may share the branch's group;
		// a taken branch nullifies younger slots cleanly.
		for i := ci + 1; i < len(g.Nodes); i++ {
			delay := 0
			if ir.IsBranch(c.Instr.Op) && ir.Traps(g.Nodes[i].Instr.Op) {
				delay = machine.Latency(c.Instr.Op)
			}
			bd.rec(ci, i, Control, delay)
		}
		// Downward-motion restrictions: instructions whose effects must be
		// architecturally visible if the exit is taken may not sink below
		// it: stores, trapping instructions (their exception would be
		// lost), and producers of values live on the taken path. Nothing
		// may sink past an unconditional exit (Jmp/Halt): it could never
		// execute, and blocks must stay well-formed.
		live := bd.lv.LiveAtTaken(g.Block, ci)
		if ir.IsBranch(c.Instr.Op) {
			g.takenLive[g.branchPrefix[ci]] = live
		}
		uncond := c.Instr.Op == ir.Jmp || c.Instr.Op == ir.Halt
		for i := 0; i < ci; i++ {
			nd := g.Nodes[i]
			in := nd.Instr
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

// finalize materializes the recorded edges: one shared Edge arena, and one
// shared backing array each for the In and Out pointer lists, carved into
// per-node sub-slices with clamped capacity. A post-Build append to any
// node's list (sentinel insertion, AddAnti) therefore reallocates that list
// instead of writing into the next node's region.
func (bd *builder) finalize() {
	g := bd.g
	n := len(g.Nodes)
	ne := len(bd.recs)
	g.edges = make([]Edge, ne)
	inCnt := make([]int32, n)
	outCnt := make([]int32, n)
	for _, r := range bd.recs {
		outCnt[r.from]++
		inCnt[r.to]++
	}
	g.inBack = make([]*Edge, ne)
	g.outBack = make([]*Edge, ne)
	inOff, outOff := 0, 0
	for i, nd := range g.Nodes {
		nd.In = g.inBack[inOff : inOff : inOff+int(inCnt[i])]
		nd.Out = g.outBack[outOff : outOff : outOff+int(outCnt[i])]
		inOff += int(inCnt[i])
		outOff += int(outCnt[i])
	}
	for i, r := range bd.recs {
		e := &g.edges[i]
		*e = Edge{From: g.Nodes[r.from], To: g.Nodes[r.to], Kind: r.kind, Delay: int(r.delay)}
		e.From.Out = append(e.From.Out, e)
		e.To.In = append(e.To.In, e)
	}
}

// addEdge inserts an edge after Build has finalized the shared backing; it
// allocates the edge individually.
func (g *Graph) addEdge(from, to *Node, kind Kind, delay int) *Edge {
	e := &Edge{From: from, To: to, Kind: kind, Delay: delay}
	from.Out = append(from.Out, e)
	to.In = append(to.In, e)
	return e
}

// newNode appends a sentinel node, preferring the arena's reserved capacity
// (one slot per original instruction) so node pointers stay stable.
func (g *Graph) newNode(tpl Node) *Node {
	tpl.ID = len(g.Nodes)
	var nd *Node
	if len(g.arena) < cap(g.arena) {
		g.arena = append(g.arena, tpl)
		nd = &g.arena[len(g.arena)-1]
	} else {
		nd = new(Node)
		*nd = tpl
	}
	g.Nodes = append(g.Nodes, nd)
	return nd
}

// Reduce performs dependence-graph reduction for the given machine (Appendix
// algorithm): it removes control dependences BR -> I when the model allows I
// to be speculative and dest(I) is not live when BR is taken, and it marks
// unprotected instructions. Reduce may be called once per graph.
//
// It is O(E): each node's In list is filtered in place, the removed edges
// are marked, and every branch's Out list is then compacted once, keeping
// the surviving edges in order.
func (g *Graph) Reduce(md machine.Desc) {
	if g.reduced {
		panic("depgraph: Reduce called twice")
	}
	g.reduced = true
	if md.Model != machine.Boosting {
		g.markUnprotected(md)
	}

	removed := 0
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
					// Boosting enforces NEITHER restriction (§2.3): the
					// shadow register file holds the result until the
					// crossed branches commit, so even a live destination
					// may be boosted — but only above at most BoostLevels
					// branches (shadow storage is finite).
					drop = g.branchesBetween(e.From.Index, nd.Index) <= md.BoostLevels
				} else {
					// Restriction (1): dest(I) must not be used before being
					// redefined when BR is taken. Stores have no destination:
					// restriction (1) holds trivially and §4.2 removes the
					// dependence outright (memory edges still apply).
					drop = !hasDest || !g.takenLive[g.branchPrefix[e.From.Index]].Has(d)
				}
				if drop {
					e.dropped = true
					removed++
					continue
				}
			}
			keep = append(keep, e)
		}
		nd.In = keep
	}
	g.RemovedControl += removed
	if removed == 0 {
		return
	}
	for _, nd := range g.Nodes {
		if !ir.IsBranch(nd.Instr.Op) {
			continue
		}
		keep := nd.Out[:0]
		for _, e := range nd.Out {
			if !e.dropped {
				keep = append(keep, e)
			}
		}
		nd.Out = keep
	}
}

// branchesBetween counts conditional branches with original index in
// [from, to): the number of branches an instruction at to crosses when
// hoisted above the branch at from. Answered from the prefix sums computed
// during Build (sentinels inserted later never count: they are appended past
// the prefix range and are not branches).
func (g *Graph) branchesBetween(from, to int) int {
	n := len(g.branchPrefix) - 1
	if to > n {
		to = n
	}
	if from >= to {
		return 0
	}
	return int(g.branchPrefix[to] - g.branchPrefix[from])
}

// markUnprotected implements the protected/unprotected classification of the
// Appendix: an instruction is unprotected when its exception condition (its
// own, or one inherited as sentinel duty from an earlier instruction) has no
// consuming use within its home block; speculating it requires an explicit
// sentinel. Stores are handled per §4.2: under the speculative-store model
// every store is unprotected (its sentinel is a confirm_store).
func (g *Graph) markUnprotected(md machine.Desc) {
	duty := make([]bool, len(g.Nodes)) // carries an unchecked exception condition
	for i, nd := range g.Nodes {
		in := nd.Instr
		if ir.IsStore(in.Op) {
			// A store cannot pass sentinel duty on (it defines no register).
			// It is unprotected when it carries inherited duty (it can still
			// serve as a sentinel while non-speculative, cf. instruction F
			// in Figure 1), and under the speculative-store model every
			// store is unprotected: its sentinel is a confirm_store (§4.2),
			// which also reports any inherited exception condition captured
			// in the buffer entry (Table 2).
			if duty[i] || md.Model == machine.SentinelStores {
				nd.Unprotected = true
			}
			continue
		}
		if !ir.Traps(in.Op) && !duty[i] {
			continue
		}
		if md.NoSharedSentinels && ir.Traps(in.Op) {
			// Ablation: no instruction may serve as another's sentinel;
			// every speculated trapping instruction needs its own check.
			nd.Unprotected = true
			continue
		}
		// Find the first use of dest(I) at or before the first succeeding
		// control instruction (the control instruction itself may be the
		// consuming use).
		d, ok := in.Def()
		if !ok {
			nd.Unprotected = true
			continue
		}
		carrier := -1
		for j := i + 1; j <= nd.HomeEnd && j < len(g.Nodes); j++ {
			if uses(g.Nodes[j].Instr, d) {
				carrier = j
				break
			}
			if d2, ok2 := g.Nodes[j].Instr.Def(); ok2 && d2 == d {
				break // redefined before any use: no carrier in home block
			}
		}
		if carrier >= 0 {
			duty[carrier] = true
		} else {
			nd.Unprotected = true
		}
	}
}

func uses(in *ir.Instr, r ir.Reg) bool {
	u1, u2 := in.Uses2()
	return (u1.Valid() && u1 == r) || (u2.Valid() && u2 == r)
}

// InsertSentinel creates a check_exception node J for speculative
// unprotected instruction I (Appendix):
//
//   - a flow dependence I -> J (J reads I's destination's exception tag),
//   - a control dependence from the nearest control instruction preceding I
//     in the original order (the lower bound of I's home block) to J, and
//   - a control dependence from J to the first control instruction
//     originally below I, keeping J inside the home block.
//
// The caller (the list scheduler) adds J to its unscheduled set.
func (g *Graph) InsertSentinel(forNode *Node) *Node {
	in := forNode.Instr
	d, ok := in.Def()
	if !ok {
		panic(fmt.Sprintf("depgraph: sentinel for instruction without destination: %v", in))
	}
	chk := ir.CHECK(d)
	before := len(g.Nodes)
	j := g.newNode(Node{
		Instr:     chk,
		Index:     forNode.Index,
		Sentinel:  true,
		Protects:  forNode,
		HomeStart: forNode.HomeStart,
		HomeEnd:   forNode.HomeEnd,
	})
	g.addEdge(forNode, j, Flow, machine.Latency(in.Op))
	if forNode.HomeStart >= 0 {
		g.addEdge(g.Nodes[forNode.HomeStart], j, Control, 0)
	}
	if forNode.HomeEnd < before {
		g.addEdge(j, g.Nodes[forNode.HomeEnd], Control, 0)
	}
	return j
}

// InsertConfirm creates a confirm_store node for speculative store I, with
// the same home-block constraints as InsertSentinel. The confirm's index
// operand is filled in after scheduling, when the number of intervening
// stores is known (§4.2).
func (g *Graph) InsertConfirm(forNode *Node) *Node {
	if !ir.IsStore(forNode.Instr.Op) {
		panic("depgraph: InsertConfirm on non-store")
	}
	cf := ir.CONFIRM(-1)
	before := len(g.Nodes)
	j := g.newNode(Node{
		Instr:     cf,
		Index:     forNode.Index,
		Sentinel:  true,
		Protects:  forNode,
		HomeStart: forNode.HomeStart,
		HomeEnd:   forNode.HomeEnd,
	})
	// The confirm must follow the store's insertion into the buffer.
	g.addEdge(forNode, j, Mem, machine.Latency(forNode.Instr.Op))
	if forNode.HomeStart >= 0 {
		g.addEdge(g.Nodes[forNode.HomeStart], j, Control, 0)
	}
	if forNode.HomeEnd < before {
		g.addEdge(j, g.Nodes[forNode.HomeEnd], Control, 0)
	}
	return j
}

// AddAnti records an anti dependence from -> to discovered during
// scheduling. The list scheduler uses it to keep later writers of a checked
// register from clobbering it before an inserted sentinel reads it.
func (g *Graph) AddAnti(from, to *Node) { g.addEdge(from, to, Anti, 0) }

// String renders the graph for debugging.
func (g *Graph) String() string {
	s := ""
	for _, nd := range g.Nodes {
		flag := ""
		if nd.Unprotected {
			flag = " [unprotected]"
		}
		if nd.Sentinel {
			flag += " [sentinel]"
		}
		s += fmt.Sprintf("%3d: %v%s\n", nd.Index, nd.Instr, flag)
		for _, e := range nd.In {
			s += fmt.Sprintf("      <- %d (%v, delay %d)\n", e.From.Index, e.Kind, e.Delay)
		}
	}
	return s
}
