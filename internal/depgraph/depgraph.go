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
// in one arena slice; builder state is fixed arrays indexed by physical
// register slot (ir.Reg.Index); and the edges recorded during Build share a
// single backing allocation, with each node's In/Out list a capacity-clamped
// sub-slice of one shared pointer array. Later insertions (sentinels, anti
// edges discovered during scheduling) take their edges, the lists that
// outgrow their region, and the inserted instructions from spill slabs
// owned by the graph, so they never write into a neighbour's region and
// allocate only while a pooled graph's slabs are still growing.
//
// Lifecycle. Build draws a Graph, together with its builder scratch, from a
// package pool and reslices whatever storage is already large enough;
// Release hands it back once the caller is done with the graph, its nodes,
// its edges and the instructions of its inserted nodes. Releasing is
// optional: a graph that is never released is an ordinary garbage-collected
// value.
package depgraph

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
	Delay    int
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
	// links is the shared backing array the per-node In/Out sub-slices are
	// carved from: In lists from its first half, Out lists from its second.
	links []*Edge
	// edgeSpill and linkSpill back the edges inserted after Build and the
	// In/Out lists those insertions outgrow; a full slab is replaced, never
	// reallocated, so pointers into it stay valid.
	edgeSpill []Edge
	linkSpill []*Edge
	// inserted holds the instructions of inserted sentinel nodes, with room
	// for one per original instruction. They belong to the graph: a caller
	// keeping them past Release copies them out.
	inserted []ir.Instr
	// takenLive[i] is the set of registers live when the conditional
	// branch at original index i is taken (empty for any other node),
	// looked up once during Build.
	takenLive []dataflow.RegSet

	pv      *alias.Provenance
	reduced bool
	// dense marks a graph built by BuildReference.
	dense bool
	// RemovedControl counts control dependences removed by reduction
	// (reported by ablation experiments).
	RemovedControl int

	// bd is the builder scratch, pooled with the graph.
	bd builder
}

// graphPool recycles graphs and their builder scratch across Build calls.
var graphPool = sync.Pool{New: func() any { return new(Graph) }}

// resize returns s with length n, reusing its backing array when it holds
// at least c elements and allocating one of capacity c otherwise. The
// contents are unspecified: callers overwrite every element they read.
func resize[T any](s []T, n, c int) []T {
	if cap(s) < c {
		return make([]T, n, c)
	}
	return s[:n]
}

// edgeRec is one dependence recorded during Build, before the shared edge
// backing is allocated.
type edgeRec struct {
	from, to int32
	delay    int32
	kind     Kind
}

// Build constructs the dependence graph of superblock b: every data and
// memory dependence, and the control dependences in sparse form (see
// controlDeps), with no reduction. lv must be liveness for the program
// containing b; pv supplies pointer provenance for memory disambiguation
// and may be nil (fully conservative aliasing). Every register in b must
// be physical. The graph comes from a pool; a caller that is done with it
// may hand it back with Release.
func Build(b *prog.Block, lv *dataflow.Liveness, pv *alias.Provenance) *Graph {
	return buildGraph(b, lv, pv, false)
}

func buildGraph(b *prog.Block, lv *dataflow.Liveness, pv *alias.Provenance, dense bool) *Graph {
	g := graphPool.Get().(*Graph)
	g.Block, g.pv, g.reduced, g.dense, g.RemovedControl = b, pv, false, dense, 0
	n := len(b.Instrs)
	g.arena = resize(g.arena, n, 2*n)
	g.Nodes = resize(g.Nodes, n, n)
	g.inserted = resize(g.inserted, 0, n)
	g.edgeSpill, g.linkSpill = g.edgeSpill[:0], g.linkSpill[:0]
	for i, in := range b.Instrs {
		g.arena[i] = Node{Instr: in, ID: i, Index: i, HomeStart: -1, HomeEnd: n}
		g.Nodes[i] = &g.arena[i]
	}
	g.homeBlocks()
	g.takenLive = resize(g.takenLive, n, n)
	for i, in := range b.Instrs {
		g.takenLive[i] = dataflow.RegSet{}
		if ir.IsBranch(in.Op) {
			g.takenLive[i] = lv.LiveAtTaken(in)
		}
	}
	bd := &g.bd
	bd.g, bd.recs = g, bd.recs[:0]
	bd.registerDeps()
	bd.memoryDeps()
	if dense {
		bd.denseControlDeps()
	} else {
		bd.controlDeps()
	}
	bd.finalize()
	bd.g = nil
	return g
}

// Release returns g's storage to the pool Build draws from. Neither g nor
// any of its nodes, edges or inserted instructions may be used afterwards.
// The block's own instructions are not part of the graph's storage and
// stay valid.
func (g *Graph) Release() {
	clear(g.arena)
	clear(g.Nodes)
	clear(g.inserted)
	g.Block, g.pv = nil, nil
	graphPool.Put(g)
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

// builder holds the state used while recording edges, in fixed arrays
// indexed by register slot: physical registers map to
// [0, NumIntRegs+NumFPRegs) via ir.Reg.Index (every valid ir.Reg is
// physical and in range). The slices keep their backing arrays across
// pooled reuse.
type builder struct {
	g    *Graph
	recs []edgeRec

	lastDef      [physSlots]int32
	usesSinceDef [physSlots][]int32
	version      [physSlots]int32
	delta        [physSlots]int64
	loads        []access
	stores       []access
	inCnt        []int32
	outCnt       []int32

	// Control-dependence scratch: nextNeed[k] is the first later branch
	// taken with register slot k live (Build); lastLive[k] the nearest
	// earlier one and liveCnt[k] their number, branchAt the positions of
	// the branches passed so far (Reduce). The records stay after Build,
	// so Reduce can move edges and finalize again.
	nextNeed  [physSlots]int32
	lastLive  [physSlots]int32
	liveCnt   [physSlots]int32
	branchAt  []int32
	branchRec []int32 // per node: its upward branch edge's record
	duty      []bool  // markUnprotected's per-node scratch
}

const physSlots = ir.NumIntRegs + ir.NumFPRegs

// access is one memory access recorded by memoryDeps.
type access struct {
	ref  memRef
	node int32
}

func (bd *builder) rec(from, to int, kind Kind, delay int) {
	bd.recs = append(bd.recs, edgeRec{from: int32(from), to: int32(to),
		delay: int32(delay), kind: kind})
}

func (bd *builder) registerDeps() {
	g := bd.g
	lastDef, usesSinceDef := &bd.lastDef, &bd.usesSinceDef
	for s := range lastDef {
		lastDef[s] = -1
		usesSinceDef[s] = usesSinceDef[s][:0]
	}
	for _, nd := range g.Nodes {
		in := nd.Instr
		u1, u2 := in.Uses2()
		for _, u := range [2]ir.Reg{u1, u2} {
			if !u.Valid() {
				continue
			}
			s := u.Index()
			if d := lastDef[s]; d >= 0 {
				bd.rec(int(d), nd.ID, Flow, machine.Latency(g.Nodes[d].Instr.Op))
			}
			usesSinceDef[s] = append(usesSinceDef[s], int32(nd.ID))
		}
		if d, ok := in.Def(); ok {
			s := d.Index()
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
	version, delta := &bd.version, &bd.delta
	*version, *delta = [physSlots]int32{}, [physSlots]int64{}
	loads, stores := bd.loads[:0], bd.stores[:0]
	for _, nd := range g.Nodes {
		in := nd.Instr
		if ir.IsMem(in.Op) {
			s := in.Src1.Index()
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
			s := d.Index()
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
	bd.loads, bd.stores = loads, stores
}

// controlDeps records the control dependences in sparse form (DESIGN.md
// "Sparse control dependences"): each is implied by a path through the
// controls between its ends, which are chained with delay 0 and whose
// branches share one latency. Upward, each control depends on the previous
// control, and every other instruction on the nearest branch above it —
// with the branch latency when it traps: a non-speculative trapping
// instruction issued in an older branch's group would signal a wrong-path
// exception — and on the nearest call above it. Downward, each non-control
// instruction precedes the first later control that needs it: any exit
// for a store or trapping instruction (its effect or exception must be
// visible if the exit is taken), a branch taken with its destination live,
// or an unconditional exit, past which nothing may sink.
func (bd *builder) controlDeps() {
	g := bd.g
	n := len(g.Nodes)
	bd.branchRec = resize(bd.branchRec, n, n)
	lastBranch, lastOther := -1, -1
	for i, nd := range g.Nodes {
		op := nd.Instr.Op
		switch {
		case ir.IsControl(op):
			if prev := max(lastBranch, lastOther); prev >= 0 {
				bd.rec(prev, i, Control, 0)
			}
			if ir.IsBranch(op) {
				lastBranch = i
			} else {
				lastOther = i
			}
			continue
		case lastBranch >= 0:
			delay := 0
			if ir.Traps(op) {
				delay = machine.Latency(g.Nodes[lastBranch].Instr.Op)
			}
			bd.branchRec[i] = int32(len(bd.recs))
			bd.rec(lastBranch, i, Control, delay)
		}
		if lastOther >= 0 {
			bd.rec(lastOther, i, Control, 0)
		}
	}

	nextNeed := &bd.nextNeed
	for k := range nextNeed {
		nextNeed[k] = int32(n)
	}
	nextCtrl, nextExit := n, n
	for i := n - 1; i >= 0; i-- {
		in := g.Nodes[i].Instr
		switch {
		case ir.IsBranch(in.Op):
			nextCtrl = i
			for live, w := g.takenLive[i], 0; w < 2; w++ {
				for m := live[w]; m != 0; m &= m - 1 {
					nextNeed[w*64+bits.TrailingZeros64(m)] = int32(i)
				}
			}
			continue
		case ir.IsControl(in.Op):
			nextCtrl = i
			if in.Op == ir.Jmp || in.Op == ir.Halt {
				nextExit = i
			}
			continue
		}
		to := nextExit
		if ir.IsStore(in.Op) || ir.Traps(in.Op) {
			to = nextCtrl
		} else if d, ok := in.Def(); ok {
			to = min(to, int(nextNeed[d.Index()]))
		}
		if to < n {
			bd.rec(i, to, Control, 0)
		}
	}
}

// finalize materializes the recorded edges: one shared Edge arena, and one
// shared backing array for the In and Out pointer lists, carved into
// per-node sub-slices with clamped capacity. A post-Build append to any
// node's list (sentinel insertion, AddAnti) therefore reallocates that list
// instead of writing into the next node's region.
func (bd *builder) finalize() {
	g := bd.g
	n := len(g.Nodes)
	ne := len(bd.recs)
	g.edges = resize(g.edges, ne, ne)
	bd.inCnt = resize(bd.inCnt, n, n)
	bd.outCnt = resize(bd.outCnt, n, n)
	inCnt, outCnt := bd.inCnt, bd.outCnt
	clear(inCnt)
	clear(outCnt)
	for _, r := range bd.recs {
		outCnt[r.from]++
		inCnt[r.to]++
	}
	g.links = resize(g.links, 2*ne, 2*ne)
	inBack, outBack := g.links[:ne:ne], g.links[ne:2*ne:2*ne]
	inOff, outOff := 0, 0
	for i, nd := range g.Nodes {
		nd.In = inBack[inOff : inOff : inOff+int(inCnt[i])]
		nd.Out = outBack[outOff : outOff : outOff+int(outCnt[i])]
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

// addEdge inserts an edge after Build has finalized the shared backing,
// taking it from the edge spill slab.
func (g *Graph) addEdge(from, to *Node, kind Kind, delay int) *Edge {
	if len(g.edgeSpill) == cap(g.edgeSpill) {
		g.edgeSpill = make([]Edge, 0, max(64, 2*cap(g.edgeSpill)))
	}
	g.edgeSpill = append(g.edgeSpill, Edge{From: from, To: to, Kind: kind, Delay: delay})
	e := &g.edgeSpill[len(g.edgeSpill)-1]
	from.Out = g.appendLink(from.Out, e)
	to.In = g.appendLink(to.In, e)
	return e
}

// appendLink appends e to an In or Out list. A full list moves to a region
// of twice its length carved from the link spill slab; the region is
// capacity-clamped like the lists finalize carves.
func (g *Graph) appendLink(list []*Edge, e *Edge) []*Edge {
	if len(list) < cap(list) {
		return append(list, e)
	}
	c := max(4, 2*len(list))
	off := len(g.linkSpill)
	if cap(g.linkSpill)-off < c {
		g.linkSpill = make([]*Edge, 0, max(256, 2*cap(g.linkSpill), c))
		off = 0
	}
	g.linkSpill = g.linkSpill[:off+c]
	moved := g.linkSpill[off : off+len(list) : off+c]
	copy(moved, list)
	return append(moved, e)
}

// newInstr stores in in the graph's inserted-instruction slab, or on the
// heap past its reserved room.
func (g *Graph) newInstr(in ir.Instr) *ir.Instr {
	if len(g.inserted) == cap(g.inserted) {
		c := new(ir.Instr)
		*c = in
		return c
	}
	g.inserted = append(g.inserted, in)
	return &g.inserted[len(g.inserted)-1]
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
// The dense edges that survive are implied by one from the nearest branch
// the model keeps, so Reduce re-targets I's one branch edge there, or drops
// it when no branch is kept, counts the removed dense edges arithmetically,
// and relinks the graph once when an edge moved.
func (g *Graph) Reduce(md machine.Desc) {
	if g.reduced {
		panic("depgraph: Reduce called twice")
	}
	g.reduced = true
	if md.Model != machine.Boosting {
		g.markUnprotected(md)
	}
	if g.dense {
		g.reduceDense(md)
		return
	}
	bd := &g.bd
	lastLive, liveCnt := &bd.lastLive, &bd.liveCnt
	for k := range lastLive {
		lastLive[k], liveCnt[k] = -1, 0
	}
	branchAt := bd.branchAt[:0]
	removed, moved := 0, false
	for i := range len(g.takenLive) {
		in := g.Nodes[i].Instr
		if ir.IsBranch(in.Op) {
			for live, w := g.takenLive[i], 0; w < 2; w++ {
				for m := live[w]; m != 0; m &= m - 1 {
					k := w*64 + bits.TrailingZeros64(m)
					lastLive[k] = int32(i)
					liveCnt[k]++
				}
			}
			branchAt = append(branchAt, int32(i))
			continue
		}
		above := len(branchAt)
		if above == 0 || !md.AllowSpeculative(in.Op) {
			continue
		}
		// kept is the nearest branch whose control dependence survives.
		kept := int32(-1)
		if d, hasDest := in.Def(); md.Model == machine.Boosting {
			// Boosting enforces NEITHER restriction (§2.3): the shadow
			// register file holds the result until the crossed branches
			// commit, so even a live destination may be boosted — but
			// only above at most BoostLevels branches (shadow storage is
			// finite).
			if k := above - 1 - md.BoostLevels; k >= 0 {
				kept = branchAt[k]
			}
			removed += min(above, md.BoostLevels)
		} else if hasDest {
			// Restriction (1): dest(I) must not be used before being
			// redefined when BR is taken.
			kept = lastLive[d.Index()]
			removed += above - int(liveCnt[d.Index()])
		} else {
			// Stores have no destination: restriction (1) holds trivially
			// and §4.2 removes the dependence outright (memory edges still
			// apply).
			removed += above
		}
		if kept != branchAt[above-1] {
			bd.recs[bd.branchRec[i]].from = kept
			moved = true
		}
	}
	bd.branchAt = branchAt
	g.RemovedControl += removed
	if moved {
		bd.recs = slices.DeleteFunc(bd.recs, func(r edgeRec) bool { return r.from < 0 })
		bd.g = g
		bd.finalize()
		bd.g = nil
	}
}

// markUnprotected implements the protected/unprotected classification of the
// Appendix: an instruction is unprotected when its exception condition (its
// own, or one inherited as sentinel duty from an earlier instruction) has no
// consuming use within its home block; speculating it requires an explicit
// sentinel. Stores are handled per §4.2: under the speculative-store model
// every store is unprotected (its sentinel is a confirm_store).
func (g *Graph) markUnprotected(md machine.Desc) {
	// duty[i]: node i carries an unchecked exception condition.
	g.bd.duty = resize(g.bd.duty, len(g.Nodes), len(g.Nodes))
	duty := g.bd.duty
	clear(duty)
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
// The caller (the list scheduler) adds J to its unscheduled set. J's
// instruction belongs to the graph until Release (see Graph.inserted).
func (g *Graph) InsertSentinel(forNode *Node) *Node {
	in := forNode.Instr
	d, ok := in.Def()
	if !ok {
		panic(fmt.Sprintf("depgraph: sentinel for instruction without destination: %v", in))
	}
	chk := g.newInstr(*ir.CHECK(d))
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
	cf := g.newInstr(*ir.CONFIRM(-1))
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
