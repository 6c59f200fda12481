// Package core implements sentinel superblock scheduling (Mahlke et al.,
// ASPLOS 1992) and the speculative code-motion models it is compared
// against: restricted percolation, general percolation, sentinel scheduling
// with speculative stores, and instruction boosting (§2.3, with shadow
// register files).
//
// Scheduling consists of dependence-graph construction and reduction
// (package depgraph) followed by the modified list scheduling of the
// paper's Appendix: when an unprotected instruction is moved above a branch,
// an explicit sentinel (check_exception for register-writing instructions,
// confirm_store for stores) is inserted into its home block and added to the
// unscheduled set; the speculative modifier is set on every instruction that
// moved above a branch.
//
// The scheduler keeps all per-node state in slices indexed by depgraph node
// ID and drives the cycle loop from two binary heaps: a ready heap ordered
// by pick priority (under recovery: control first; then critical-path height,
// original index, protectee-before-sentinel) and a future heap ordered by
// earliest feasible cycle. Nodes enter the heaps when their last dependence
// predecessor issues; edges inserted mid-schedule (sentinels, anti edges to
// later writers of a checked register) bump a per-node generation counter so
// stale heap entries are discarded on pop. The result is byte-identical to
// the seed scheduler preserved in refsched.go, which TestSchedulerMatchesReference
// enforces.
package core

import (
	"fmt"

	"sentinel/internal/alias"
	"sentinel/internal/dataflow"
	"sentinel/internal/depgraph"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// Stats reports what scheduling did, for the paper's ablation experiments.
type Stats struct {
	// Speculative counts instructions whose speculative modifier was set.
	Speculative int
	// Sentinels counts explicit check_exception instructions inserted.
	Sentinels int
	// Confirms counts confirm_store instructions inserted.
	Confirms int
	// RemovedControl counts control dependences removed by reduction.
	RemovedControl int
	// ClearTags counts exception-tag resets inserted for possibly
	// uninitialized registers (§3.5).
	ClearTags int
	// Renamed counts self-modifying instructions split by the recovery
	// renaming transformation (§3.7).
	Renamed int
	// ForcedIssues counts instructions issued in violation of a recovery
	// deferral to break a scheduling deadlock; a nonzero value means the
	// schedule is not fully restartable (it is still architecturally
	// correct).
	ForcedIssues int
}

func (s *Stats) add(o Stats) {
	s.Speculative += o.Speculative
	s.Sentinels += o.Sentinels
	s.Confirms += o.Confirms
	s.RemovedControl += o.RemovedControl
	s.ClearTags += o.ClearTags
	s.Renamed += o.Renamed
	s.ForcedIssues += o.ForcedIssues
}

// Schedule compiles p for the machine md: every block is list-scheduled
// under md's speculation model. It returns a new scheduled program (p is not
// modified) with Cycle/Slot assigned on every instruction and sentinels
// inserted as needed.
func Schedule(p *prog.Program, md machine.Desc) (*prog.Program, Stats, error) {
	return compile(p.Clone(), md, scheduleBlock)
}

// ScheduleOwned is Schedule for a program the caller owns and gives up: p
// is scheduled in place, without Schedule's copy, and the result is p
// itself. Nothing else may hold p or its blocks and instructions.
func ScheduleOwned(p *prog.Program, md machine.Desc) (*prog.Program, Stats, error) {
	return compile(p, md, scheduleBlock)
}

// blockScheduler list-schedules one block in place: scheduleBlock, or the
// seed scheduler's refScheduleBlock.
type blockScheduler func(*prog.Block, *dataflow.Liveness, *alias.Provenance, machine.Desc) (Stats, error)

// compile runs the whole-program pipeline around a block scheduler,
// rewriting p in place. It lays p out first, so the analyses read resolved
// targets whatever the caller did.
func compile(p *prog.Program, md machine.Desc, schedBlock blockScheduler) (*prog.Program, Stats, error) {
	p.Layout()
	lv, pv, stats, err := prepareOwned(p, md)
	if err != nil {
		return nil, stats, err
	}
	for _, b := range p.Blocks {
		if len(b.Instrs) == 0 {
			continue
		}
		s, err := schedBlock(b, lv, pv, md)
		if err != nil {
			return nil, stats, fmt.Errorf("core: block %q: %w", b.Label, err)
		}
		stats.add(s)
	}
	p.Layout()
	if err := p.Validate(); err != nil {
		return nil, stats, fmt.Errorf("core: scheduled program invalid: %w", err)
	}
	return p, stats, nil
}

// prepareOwned validates md and readies the laid-out p for block scheduling
// in place — recovery renaming applied and exception-tag resets inserted —
// returning its liveness and pointer provenance.
func prepareOwned(p *prog.Program, md machine.Desc) (*dataflow.Liveness, *alias.Provenance, Stats, error) {
	var stats Stats
	if err := md.Validate(); err != nil {
		return nil, nil, stats, err
	}
	if md.Recovery {
		for _, b := range p.Blocks {
			if b.Superblock {
				stats.Renamed += splitSelfModifying(p, b)
			}
		}
	}

	lv := dataflow.Compute(p)
	if md.Model.UsesTags() {
		stats.ClearTags += insertClearTags(p, lv)
		lv = dataflow.Compute(p) // ClearTags define registers
	}
	return lv, alias.Analyze(p), stats, nil
}

// insertClearTags prepends ClearTag instructions to the entry block for
// every register that may be read before being written (§3.5): such a
// register could carry a stale exception tag and cause a spurious signal.
func insertClearTags(p *prog.Program, lv *dataflow.Liveness) int {
	uninit := lv.UninitializedAtEntry()
	regs := uninit.Regs()
	if len(regs) == 0 {
		return 0
	}
	entry := p.Block(p.Entry)
	pre := make([]*ir.Instr, 0, len(regs))
	for _, r := range regs {
		pre = append(pre, ir.CLEARTAG(r))
	}
	entry.Instrs = append(pre, entry.Instrs...)
	return len(regs)
}

// region tracks one open restartable sequence (§3.7): from a speculative
// trapping instruction until its sentinel executes, the register AND memory
// inputs of every instruction issued in between must be preserved, or the
// sequence could not be re-executed.
type region struct {
	spec *depgraph.Node
	// watch is the set of registers currently carrying the speculative
	// exception condition; the first non-speculative reader of any of them
	// is the sentinel and closes the region. Speculative readers propagate
	// the condition to their destinations.
	watch dataflow.RegSet
	// confirm closes the region instead, for speculative stores (§4).
	confirm *depgraph.Node
	// homeEnd is the original index of the control instruction ending the
	// speculative instruction's home block: a backstop close (every
	// sentinel is constrained to issue before it).
	homeEnd int
	// protected registers may not be overwritten while the region is open.
	protected dataflow.RegSet
	// loads records the memory references read inside the region; a store
	// that may alias any of them must wait for the region to close
	// (restriction 4 "for both register and memory operands").
	loads []regionLoad
	// poisoned registers were redefined inside the region, invalidating
	// base-register disambiguation against recorded loads.
	poisoned dataflow.RegSet
}

// regionLoad is a memory input recorded while a region is open.
type regionLoad struct {
	base     ir.Reg
	lo, hi   int64
	poisoned bool // base register value no longer comparable
}

// openStore tracks a speculative store awaiting its confirm (sentinel
// model) or the branches that commit it (boosting model), for the
// store-buffer separation constraint of §4.2 and its boosting analogue.
type openStore struct {
	store        *depgraph.Node
	confirm      *depgraph.Node
	branchesLeft int // boosting: commits when this many branches have issued
	storesSince  int
}

// deferred classifies why a ready candidate may not issue this cycle.
type deferReason int

const (
	deferNo deferReason = iota
	deferStoreSep
	deferRecovery
)

// heapEnt is one candidate in the ready or future heap. Priority fields are
// snapshotted at push time (height and the static fields never change after
// a node is released); gen detects entries staled by mid-schedule edge
// insertion.
type heapEnt struct {
	id       int32
	gen      int32
	height   int32
	index    int32
	earliest int32
	ctrl     bool
	sent     bool
}

// pairEnt associates a speculative store with its confirm (by node ID).
type pairEnt struct {
	store, confirm int32
}

type scheduler struct {
	g  *depgraph.Graph
	pv *alias.Provenance
	md machine.Desc

	// Per-node state, indexed by depgraph node ID.
	cycleOf  []int32
	slotOf   []int32
	height   []int32
	done     []bool
	released []bool
	indeg    []int32 // unscheduled dependence predecessors
	gen      []int32 // bumped when a node's release state is invalidated

	readyNow []heapEnt // heap ordered by pick priority
	future   []heapEnt // heap ordered by earliest feasible cycle
	stash    []heapEnt // scratch: deferred entries popped during one pick

	// ctrlIdx/branchIdx list the original control/branch node IDs in
	// program order; ctrlFront is the first possibly-unscheduled control.
	ctrlIdx   []int32
	ctrlFront int
	branchIdx []int32
	// writerIDs lists the IDs of the original instructions defining each
	// register, grouped by register slot (ir.Reg.Index) in ID order; slot
	// k's writers are writerIDs[writerOff[k]:writerOff[k+1]]. They serve the
	// anti-dependence scan when a check_exception is inserted, so the table
	// is only built for tag-based models, the only inserters.
	writerOff [physSlots + 1]int32
	writerIDs []int32

	cycle       int32
	unscheduled int

	regions []*region
	stores  []*openStore
	pairs   []pairEnt
	stats   Stats
}

func scheduleBlock(b *prog.Block, lv *dataflow.Liveness, pv *alias.Provenance, md machine.Desc) (Stats, error) {
	g := depgraph.Build(b, lv, pv)
	g.Reduce(md)
	n := len(g.Nodes)
	// Per-node state is cut from three slabs. Each per-ID array has room
	// for n inserted nodes before addNode's appends move it; the control
	// lists start empty with room for n entries, the heaps with n/2.
	is := make([]int32, 12*n)
	bs := make([]bool, 4*n)
	hs := make([]heapEnt, n)
	s := &scheduler{
		g:         g,
		pv:        pv,
		md:        md,
		cycleOf:   is[0 : n : 2*n],
		slotOf:    is[2*n : 3*n : 4*n],
		height:    is[4*n : 5*n : 6*n],
		indeg:     is[6*n : 7*n : 8*n],
		gen:       is[8*n : 9*n : 10*n],
		ctrlIdx:   is[10*n : 10*n : 11*n],
		branchIdx: is[11*n : 11*n : 12*n],
		done:      bs[0 : n : 2*n],
		released:  bs[2*n : 3*n : 4*n],
		readyNow:  hs[0 : 0 : n/2],
		future:    hs[n/2 : n/2 : n],

		unscheduled: n,
	}
	s.stats.RemovedControl = g.RemovedControl

	// Every edge recorded during Build goes from a smaller to a larger
	// original index, so reverse ID order is a reverse-topological order and
	// one backward pass computes all critical-path heights (identical to the
	// seed's memoized recursion).
	for i := n - 1; i >= 0; i-- {
		nd := g.Nodes[i]
		h := int32(machine.Latency(nd.Instr.Op))
		for _, e := range nd.Out {
			if c := int32(e.Delay) + s.height[e.To.ID]; c > h {
				h = c
			}
		}
		s.height[i] = h
	}

	for i := 0; i < n; i++ {
		nd := g.Nodes[i]
		if ir.IsControl(nd.Instr.Op) {
			s.ctrlIdx = append(s.ctrlIdx, int32(i))
			if ir.IsBranch(nd.Instr.Op) {
				s.branchIdx = append(s.branchIdx, int32(i))
			}
		}
		s.indeg[i] = int32(len(nd.In))
	}
	if md.Model.UsesTags() {
		s.indexWriters()
	}
	for i := 0; i < n; i++ {
		if s.indeg[i] == 0 {
			s.release(int32(i))
		}
	}

	err := s.run()
	if err == nil {
		s.emit(b)
	}
	g.Release()
	return s.stats, err
}

const physSlots = ir.NumIntRegs + ir.NumFPRegs

// indexWriters fills writerOff/writerIDs before any sentinel is inserted:
// one counting pass, a prefix sum, and one placement pass.
func (s *scheduler) indexWriters() {
	for _, nd := range s.g.Nodes {
		if d, ok := nd.Instr.Def(); ok {
			s.writerOff[d.Index()+1]++
		}
	}
	for k := 1; k <= physSlots; k++ {
		s.writerOff[k] += s.writerOff[k-1]
	}
	s.writerIDs = make([]int32, s.writerOff[physSlots])
	next := s.writerOff
	for i, nd := range s.g.Nodes {
		if d, ok := nd.Instr.Def(); ok {
			k := d.Index()
			s.writerIDs[next[k]] = int32(i)
			next[k]++
		}
	}
}

// writers returns the IDs of the original instructions defining r.
func (s *scheduler) writers(r ir.Reg) []int32 {
	k := r.Index()
	return s.writerIDs[s.writerOff[k]:s.writerOff[k+1]]
}

// readyLess is the pick priority: under recovery, ready control instructions
// go first within a cycle (an instruction issued in a later slot of a
// branch's own cycle is not speculative — a taken branch nullifies it — so
// fewer restartable regions open, at identical performance); then
// critical-path height, original program order, and protectee before
// sentinel. The ID tiebreak reproduces the seed's first-scanned-wins rule.
func (s *scheduler) readyLess(a, b heapEnt) bool {
	if s.md.Recovery && a.ctrl != b.ctrl {
		return a.ctrl
	}
	if a.height != b.height {
		return a.height > b.height
	}
	if a.index != b.index {
		return a.index < b.index
	}
	if a.sent != b.sent {
		return !a.sent
	}
	return a.id < b.id
}

func futureLess(a, b heapEnt) bool {
	if a.earliest != b.earliest {
		return a.earliest < b.earliest
	}
	return a.id < b.id
}

func (s *scheduler) pushReady(e heapEnt) {
	s.readyNow = append(s.readyNow, e)
	h := s.readyNow
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.readyLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (s *scheduler) popReady() heapEnt {
	h := s.readyNow
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.readyNow = h[:last]
	h = s.readyNow
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && s.readyLess(h[l], h[m]) {
			m = l
		}
		if r < last && s.readyLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

func (s *scheduler) pushFuture(e heapEnt) {
	s.future = append(s.future, e)
	h := s.future
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !futureLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (s *scheduler) popFuture() heapEnt {
	h := s.future
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.future = h[:last]
	h = s.future
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && futureLess(h[l], h[m]) {
			m = l
		}
		if r < last && futureLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// valid reports whether a heap entry still describes a live candidate: not
// yet issued, and not staled by a mid-schedule edge insertion.
func (s *scheduler) valid(e heapEnt) bool {
	return !s.done[e.id] && s.released[e.id] && s.gen[e.id] == e.gen
}

// release enters a node whose dependence predecessors have all issued into
// the ready or future heap, keyed by the earliest cycle they allow.
func (s *scheduler) release(id int32) {
	nd := s.g.Nodes[id]
	at := int32(0)
	for _, e := range nd.In {
		if c := s.cycleOf[e.From.ID] + int32(e.Delay); c > at {
			at = c
		}
	}
	s.released[id] = true
	ent := heapEnt{
		id:       id,
		gen:      s.gen[id],
		height:   s.height[id],
		index:    int32(nd.Index),
		earliest: at,
		ctrl:     !nd.Sentinel && ir.IsControl(nd.Instr.Op),
		sent:     nd.Sentinel,
	}
	if at <= s.cycle {
		s.pushReady(ent)
	} else {
		s.pushFuture(ent)
	}
}

// invalidate marks a released node no longer issuable (an edge was inserted
// in front of it); any heap entries it has become stale.
func (s *scheduler) invalidate(id int32) {
	s.gen[id]++
	s.released[id] = false
}

// addNode registers a node inserted mid-schedule (check_exception or
// confirm_store): grows the per-ID state, computes its height from its
// successors' memoized heights (the seed never refreshes a predecessor's
// height after insertion, so neither do we), accounts its edges into the
// indegree bookkeeping, and releases it if already unblocked.
func (s *scheduler) addNode(nd *depgraph.Node) {
	if nd.ID != len(s.done) {
		panic("core: node IDs out of sync with scheduler state")
	}
	h := int32(machine.Latency(nd.Instr.Op))
	for _, e := range nd.Out {
		if c := int32(e.Delay) + s.height[e.To.ID]; c > h {
			h = c
		}
	}
	indeg := int32(0)
	for _, e := range nd.In {
		if !s.done[e.From.ID] {
			indeg++
		}
	}
	s.cycleOf = append(s.cycleOf, 0)
	s.slotOf = append(s.slotOf, 0)
	s.height = append(s.height, h)
	s.done = append(s.done, false)
	s.released = append(s.released, false)
	s.indeg = append(s.indeg, indeg)
	s.gen = append(s.gen, 0)
	s.unscheduled++
	// The new node's outgoing edges (to its home block's closing control,
	// or anti edges to later writers of a checked register) block targets
	// that may already be released.
	for _, e := range nd.Out {
		t := int32(e.To.ID)
		if s.done[t] {
			continue
		}
		s.indeg[t]++
		s.invalidate(t)
	}
	if indeg == 0 {
		s.release(int32(nd.ID))
	}
}

// promote moves every future entry whose earliest cycle has arrived into the
// ready heap.
func (s *scheduler) promote() {
	for len(s.future) > 0 {
		top := s.future[0]
		if !s.valid(top) {
			s.popFuture()
			continue
		}
		if top.earliest > s.cycle {
			return
		}
		s.pushReady(s.popFuture())
	}
}

// futureMin returns the earliest cycle any released-but-not-ready node can
// issue, or -1 if there is none.
func (s *scheduler) futureMin() int32 {
	for len(s.future) > 0 {
		if top := s.future[0]; s.valid(top) {
			return top.earliest
		}
		s.popFuture()
	}
	return -1
}

func (s *scheduler) deferral(nd *depgraph.Node) deferReason {
	in := nd.Instr
	if ir.BufferedStore(in.Op) {
		// §4.2: a speculative store may be separated from its confirm by at
		// most StoreBuffer-1 stores, or the buffer could deadlock with a
		// probationary entry at its head.
		for _, os := range s.stores {
			if os.storesSince >= s.md.StoreBuffer-1 {
				return deferStoreSep
			}
		}
	}
	if s.md.Recovery && len(s.regions) > 0 {
		if d, ok := in.Def(); ok {
			for _, rg := range s.regions {
				if rg.protected.Has(d) {
					return deferRecovery
				}
			}
		}
		if in.SelfModifying() {
			// Restriction 3: re-executing a self-modifying instruction
			// inside a restartable sequence is wrong.
			return deferRecovery
		}
		if ir.IsStore(in.Op) && s.storeAliasesRegionLoad(in) {
			// Restriction 4 for memory operands: a store that may overwrite
			// a location read inside an open region must wait for the
			// sentinel (Figure 3: F scheduled after G).
			return deferRecovery
		}
	}
	return deferNo
}

// storeAliasesRegionLoad reports whether the store may alias any load
// recorded in an open region. Disambiguation matches package depgraph: same
// unpoisoned base register with disjoint offset ranges is independent;
// anything else may alias.
func (s *scheduler) storeAliasesRegionLoad(st *ir.Instr) bool {
	lo := st.Imm
	hi := st.Imm + int64(ir.MemSize(st.Op))
	for _, rg := range s.regions {
		for _, ld := range rg.loads {
			// Pointer provenance is flow-insensitive, so it stays valid
			// even when base registers were redefined inside the region.
			if s.pv != nil && s.pv.Disjoint(st.Src1, ld.base) {
				continue
			}
			if ld.poisoned || rg.poisoned.Has(st.Src1) || ld.base != st.Src1 ||
				(lo < ld.hi && ld.lo < hi) {
				return true
			}
		}
	}
	return false
}

// speculative reports whether issuing nd now moves it above a branch: some
// control instruction that precedes it in the original order is still
// unscheduled. Control instructions never lose their control dependences on
// one another, so they issue in program order and the first unscheduled
// entry of ctrlIdx is the minimum unscheduled control index.
func (s *scheduler) speculative(nd *depgraph.Node) bool {
	if nd.Sentinel || ir.IsControl(nd.Instr.Op) {
		return false
	}
	for s.ctrlFront < len(s.ctrlIdx) && s.done[s.ctrlIdx[s.ctrlFront]] {
		s.ctrlFront++
	}
	return s.ctrlFront < len(s.ctrlIdx) &&
		s.g.Nodes[s.ctrlIdx[s.ctrlFront]].Index < nd.Index
}

func (s *scheduler) issue(nd *depgraph.Node, cycle, slot int32) {
	id := int32(nd.ID)
	s.done[id] = true
	s.cycleOf[id] = cycle
	s.slotOf[id] = slot
	s.unscheduled--
	in := nd.Instr
	// Sentinel insertion below appends an edge nd -> sentinel to nd.Out; the
	// successor-release loop at the end must only walk the edges that existed
	// while nd was unscheduled (addNode already accounts the new one: edges
	// from done predecessors are excluded from the sentinel's indegree).
	nOut := len(nd.Out)

	willSpec := s.speculative(nd)

	// Close recovery regions whose sentinel this instruction is: a
	// confirm_store closing its speculative store's region, a
	// non-speculative reader of a register carrying the exception
	// condition, or (backstop) the control instruction ending the home
	// block — every sentinel is constrained to issue before it.
	if s.md.Recovery && len(s.regions) > 0 {
		var keep []*region
		for _, rg := range s.regions {
			closed := rg.confirm == nd ||
				(!nd.Sentinel && ir.IsControl(in.Op) && rg.homeEnd == nd.Index)
			if !closed && !willSpec && !ir.IsControl(in.Op) {
				u1, u2 := in.Uses2()
				for _, u := range [2]ir.Reg{u1, u2} {
					if u.Valid() && rg.watch.Has(u) {
						closed = true // this instruction is the sentinel
						break
					}
				}
			}
			if !closed {
				keep = append(keep, rg)
			}
		}
		s.regions = keep
	}
	if in.Op == ir.ConfirmSt {
		var keep []*openStore
		for _, os := range s.stores {
			if os.confirm != nd {
				keep = append(keep, os)
			}
		}
		s.stores = keep
	}
	if s.md.Model == machine.Boosting && !nd.Sentinel && ir.IsBranch(in.Op) {
		// A committing branch releases one shadow level: boosted stores
		// with no branches left become ordinary (confirmable) entries.
		var keep []*openStore
		for _, os := range s.stores {
			os.branchesLeft--
			if os.branchesLeft > 0 {
				keep = append(keep, os)
			}
		}
		s.stores = keep
	}
	if ir.BufferedStore(in.Op) {
		for _, os := range s.stores {
			os.storesSince++
		}
	}

	var confirm *depgraph.Node
	if willSpec && s.md.Model == machine.Boosting {
		in.Spec = true
		s.stats.Speculative++
		in.BoostLevel = s.pendingBranchesAbove(nd)
		if ir.BufferedStore(in.Op) {
			s.stores = append(s.stores, &openStore{store: nd, branchesLeft: in.BoostLevel})
		}
	} else if willSpec {
		in.Spec = true
		s.stats.Speculative++
		usesTags := s.md.Model.UsesTags()
		switch {
		case ir.IsStore(in.Op):
			// Only SentinelStores allows this; the confirm is the sentinel.
			confirm = s.g.InsertConfirm(nd)
			s.addNode(confirm)
			s.pairs = append(s.pairs, pairEnt{store: id, confirm: int32(confirm.ID)})
			s.stores = append(s.stores, &openStore{store: nd, confirm: confirm})
			s.stats.Confirms++
		case usesTags && nd.Unprotected:
			chk := s.g.InsertSentinel(nd)
			// The check examines dest(nd)'s exception tag: no later writer
			// of that register (e.g. an unrolled copy reusing it) may be
			// scheduled before the check reads it.
			if d, ok := in.Def(); ok {
				for _, w := range s.writers(d) {
					if w == id || s.done[w] {
						continue
					}
					s.g.AddAnti(chk, s.g.Nodes[w])
				}
			}
			s.addNode(chk)
			s.stats.Sentinels++
		}
	}

	if s.md.Recovery {
		// Track X's effects in every open region: its inputs join the
		// protected set, a speculative reader propagates the watched
		// condition to its destination, redefinitions kill watched copies
		// and poison base-register disambiguation, and loads record the
		// memory inputs the region must preserve.
		for _, rg := range s.regions {
			readsWatch := false
			u1, u2 := in.Uses2()
			for _, u := range [2]ir.Reg{u1, u2} {
				if !u.Valid() {
					continue
				}
				rg.protected.Add(u)
				if rg.watch.Has(u) {
					readsWatch = true
				}
			}
			if d, ok := in.Def(); ok {
				if in.Spec && readsWatch {
					rg.watch.Add(d)
				} else if rg.watch.Has(d) {
					rg.watch.Remove(d)
				}
				rg.poisoned.Add(d)
			}
			if ir.IsLoad(in.Op) {
				rg.loads = append(rg.loads, regionLoad{
					base:     in.Src1,
					lo:       in.Imm,
					hi:       in.Imm + int64(ir.MemSize(in.Op)),
					poisoned: rg.poisoned.Has(in.Src1),
				})
			}
		}
		// A speculative trapping instruction opens a new restartable
		// sequence ending at its sentinel.
		if in.Spec && ir.Traps(in.Op) {
			rg := &region{spec: nd, homeEnd: nd.HomeEnd, confirm: confirm}
			if d, ok := in.Def(); ok {
				rg.watch.Add(d)
			}
			u1, u2 := in.Uses2()
			for _, u := range [2]ir.Reg{u1, u2} {
				if u.Valid() {
					rg.protected.Add(u)
				}
			}
			if ir.IsLoad(in.Op) {
				rg.loads = append(rg.loads, regionLoad{
					base: in.Src1,
					lo:   in.Imm,
					hi:   in.Imm + int64(ir.MemSize(in.Op)),
				})
			}
			s.regions = append(s.regions, rg)
		}
	}

	// Releasing successors comes after any sentinel insertion so a target
	// of both nd and a just-inserted edge is never released prematurely.
	for _, e := range nd.Out[:nOut] {
		t := int32(e.To.ID)
		if s.done[t] {
			continue
		}
		if s.indeg[t]--; s.indeg[t] == 0 {
			s.release(t)
		}
	}
}

// run performs the cycle-driven list scheduling loop.
func (s *scheduler) run() error {
	s.cycle = 0
	guard := 0
	for s.unscheduled > 0 {
		if guard++; guard > 1000000 {
			return fmt.Errorf("scheduler did not converge")
		}
		s.promote()

		issued := int32(0)
		for issued < int32(s.md.IssueWidth) {
			cand := s.pick()
			if cand == nil {
				break
			}
			s.issue(cand, s.cycle, issued)
			issued++
		}
		if issued > 0 {
			s.cycle++
			continue
		}

		// Nothing issued: either wait for latencies, or we are blocked on
		// deferrals, or the graph is cyclic.
		if next := s.futureMin(); next > s.cycle {
			s.cycle = next
			continue
		}
		// Deferred candidates are ready but held back. Force the
		// highest-priority one to break the deadlock; for recovery this
		// sacrifices restartability of the affected region (counted), never
		// architectural correctness. A forced store-separation violation
		// could deadlock the store buffer, so it is an error instead.
		if cand := s.pickDeferred(deferRecovery); cand != nil {
			s.stats.ForcedIssues++
			s.issue(cand, s.cycle, 0)
			s.cycle++
			continue
		}
		if s.pickDeferred(deferStoreSep) != nil {
			return fmt.Errorf("store-buffer separation constraint is unsatisfiable (buffer size %d)", s.md.StoreBuffer)
		}
		return fmt.Errorf("dependence cycle detected")
	}
	return nil
}

// pick pops the best ready, non-deferred candidate, or nil. Deferred
// entries are stashed and re-pushed: deferral state changes with every
// issue, so they are re-examined at the next pick.
func (s *scheduler) pick() *depgraph.Node {
	var chosen *depgraph.Node
	for len(s.readyNow) > 0 {
		ent := s.popReady()
		if !s.valid(ent) {
			continue
		}
		nd := s.g.Nodes[ent.id]
		if s.deferral(nd) != deferNo {
			s.stash = append(s.stash, ent)
			continue
		}
		chosen = nd
		break
	}
	for _, ent := range s.stash {
		s.pushReady(ent)
	}
	s.stash = s.stash[:0]
	return chosen
}

// pickDeferred returns the best ready candidate held back for the given
// reason. Deferred candidates are never control instructions (controls
// define no registers, do not store, and are not self-modifying), so the
// plain heap order coincides with the seed's better-order among them even
// under recovery's control-first rule.
func (s *scheduler) pickDeferred(reason deferReason) *depgraph.Node {
	var chosen *depgraph.Node
	for len(s.readyNow) > 0 {
		ent := s.popReady()
		if !s.valid(ent) {
			continue
		}
		s.stash = append(s.stash, ent)
		if chosen == nil && s.deferral(s.g.Nodes[ent.id]) == reason {
			chosen = s.g.Nodes[ent.id]
		}
	}
	for _, ent := range s.stash {
		if chosen != nil && ent.id == int32(chosen.ID) {
			continue
		}
		s.pushReady(ent)
	}
	s.stash = s.stash[:0]
	return chosen
}

// pendingBranchesAbove counts the conditional branches that precede nd in
// the original order but are not yet scheduled: the number of shadow levels
// nd's result must survive (its boost level).
func (s *scheduler) pendingBranchesAbove(nd *depgraph.Node) int {
	n := 0
	for _, b := range s.branchIdx {
		if s.g.Nodes[b].Index >= nd.Index {
			break
		}
		if !s.done[b] {
			n++
		}
	}
	return n
}

// emit rewrites the block's instructions in schedule order and resolves
// confirm_store indices: the number of stores between a speculative store
// and its confirm in the final schedule (§4.2). Every (cycle, slot) pair is
// issued at most once, so each node is placed directly at
// cycle*width+slot; compacting the placement table gives schedule order.
func (s *scheduler) emit(b *prog.Block) {
	n := len(s.g.Nodes)
	width := int32(s.md.IssueWidth)
	scratch := make([]int32, n+int(s.cycle*width))
	pos, at := scratch[:n], scratch[n:] // at holds node ID + 1; 0 marks an empty slot
	for id := range n {
		at[s.cycleOf[id]*width+s.slotOf[id]] = int32(id) + 1
	}
	instrs := make([]*ir.Instr, 0, n)
	for _, e := range at {
		if e == 0 {
			continue
		}
		id := e - 1
		nd := s.g.Nodes[id]
		nd.Instr.Cycle = int(s.cycleOf[id])
		nd.Instr.Slot = int(s.slotOf[id])
		pos[id] = int32(len(instrs))
		instrs = append(instrs, nd.Instr)
	}
	for _, pr := range s.pairs {
		cnt := int64(0)
		for i := pos[pr.store] + 1; i < pos[pr.confirm]; i++ {
			if ir.BufferedStore(instrs[i].Op) {
				cnt++
			}
		}
		s.g.Nodes[pr.confirm].Instr.Imm = cnt
	}
	b.Instrs = instrs
}
