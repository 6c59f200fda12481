package core

// The seed (pre-dense-index) list scheduler, kept verbatim as a differential
// oracle: it scans g.Nodes for every decision and keys all per-node state by
// *depgraph.Node maps, which makes it O(n^2 .. n^3) per block but trivially
// auditable against the paper's Appendix. The production scheduler in
// schedule.go must emit byte-identical programs; TestSchedulerMatchesReference
// (core) and TestDenseSchedulerMatchesReferenceOnCorpus (eval) enforce that on
// the full workload set and on differential-fuzz corpus inputs. It is not
// used on any production path.

import (
	"fmt"
	"sort"

	"sentinel/internal/alias"
	"sentinel/internal/dataflow"
	"sentinel/internal/depgraph"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// ScheduleReference compiles p exactly like Schedule but through the seed
// scheduler. Exported for the differential tests in this package and in
// internal/eval; production callers use Schedule.
func ScheduleReference(p *prog.Program, md machine.Desc) (*prog.Program, Stats, error) {
	return compile(p.Clone(), md, refScheduleBlock)
}

type refScheduler struct {
	g       *depgraph.Graph
	pv      *alias.Provenance
	md      machine.Desc
	cycleOf map[*depgraph.Node]int
	slotOf  map[*depgraph.Node]int
	height  map[*depgraph.Node]int
	done    map[*depgraph.Node]bool
	regions []*region
	stores  []*openStore
	pairs   map[*depgraph.Node]*depgraph.Node // spec store -> confirm
	stats   Stats
}

func refScheduleBlock(b *prog.Block, lv *dataflow.Liveness, pv *alias.Provenance, md machine.Desc) (Stats, error) {
	g := depgraph.Build(b, lv, pv)
	g.Reduce(md)
	s := &refScheduler{
		g:       g,
		pv:      pv,
		md:      md,
		cycleOf: map[*depgraph.Node]int{},
		slotOf:  map[*depgraph.Node]int{},
		height:  map[*depgraph.Node]int{},
		done:    map[*depgraph.Node]bool{},
		pairs:   map[*depgraph.Node]*depgraph.Node{},
	}
	s.stats.RemovedControl = g.RemovedControl
	for _, nd := range g.Nodes {
		s.computeHeight(nd)
	}
	if err := s.run(); err != nil {
		return s.stats, err
	}
	s.emit(b)
	return s.stats, nil
}

// computeHeight returns the latency-weighted critical-path height of nd.
func (s *refScheduler) computeHeight(nd *depgraph.Node) int {
	if h, ok := s.height[nd]; ok {
		return h
	}
	h := machine.Latency(nd.Instr.Op)
	for _, e := range nd.Out {
		if c := e.Delay + s.computeHeight(e.To); c > h {
			h = c
		}
	}
	s.height[nd] = h
	return h
}

// ready reports whether nd can issue at the given cycle.
func (s *refScheduler) ready(nd *depgraph.Node, cycle int) bool {
	for _, e := range nd.In {
		if !s.done[e.From] || s.cycleOf[e.From]+e.Delay > cycle {
			return false
		}
	}
	return true
}

// earliest returns the earliest cycle nd's scheduled predecessors allow, or
// -1 if some predecessor is unscheduled.
func (s *refScheduler) earliest(nd *depgraph.Node) int {
	at := 0
	for _, e := range nd.In {
		if !s.done[e.From] {
			return -1
		}
		if c := s.cycleOf[e.From] + e.Delay; c > at {
			at = c
		}
	}
	return at
}

func (s *refScheduler) deferral(nd *depgraph.Node) deferReason {
	in := nd.Instr
	if ir.BufferedStore(in.Op) {
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
			return deferRecovery
		}
		if ir.IsStore(in.Op) && refStoreAliasesRegionLoad(s.pv, s.regions, in) {
			return deferRecovery
		}
	}
	return deferNo
}

// refStoreAliasesRegionLoad mirrors scheduler.storeAliasesRegionLoad.
func refStoreAliasesRegionLoad(pv *alias.Provenance, regions []*region, st *ir.Instr) bool {
	lo := st.Imm
	hi := st.Imm + int64(ir.MemSize(st.Op))
	for _, rg := range regions {
		for _, ld := range rg.loads {
			if pv != nil && pv.Disjoint(st.Src1, ld.base) {
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

// speculative reports whether issuing nd now moves it above a branch.
func (s *refScheduler) speculative(nd *depgraph.Node) bool {
	if nd.Sentinel || ir.IsControl(nd.Instr.Op) {
		return false
	}
	for _, other := range s.g.Nodes {
		if !other.Sentinel && ir.IsControl(other.Instr.Op) &&
			other.Index < nd.Index && !s.done[other] {
			return true
		}
	}
	return false
}

func (s *refScheduler) issue(nd *depgraph.Node, cycle, slot int) {
	s.done[nd] = true
	s.cycleOf[nd] = cycle
	s.slotOf[nd] = slot
	in := nd.Instr

	willSpec := s.speculative(nd)

	if s.md.Recovery && len(s.regions) > 0 {
		var keep []*region
		for _, rg := range s.regions {
			closed := rg.confirm == nd ||
				(!nd.Sentinel && ir.IsControl(in.Op) && rg.homeEnd == nd.Index)
			if !closed && !willSpec && !ir.IsControl(in.Op) {
				for _, u := range in.Uses() {
					if rg.watch.Has(u) {
						closed = true
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
			confirm = s.g.InsertConfirm(nd)
			s.computeHeight(confirm)
			s.pairs[nd] = confirm
			s.stores = append(s.stores, &openStore{store: nd, confirm: confirm})
			s.stats.Confirms++
		case usesTags && nd.Unprotected:
			chk := s.g.InsertSentinel(nd)
			if d, ok := in.Def(); ok {
				for _, w := range s.g.Nodes {
					if w == nd || s.done[w] {
						continue
					}
					if wd, wok := w.Instr.Def(); wok && wd == d {
						s.g.AddAnti(chk, w)
					}
				}
			}
			s.computeHeight(chk)
			s.stats.Sentinels++
		}
	}

	if s.md.Recovery {
		for _, rg := range s.regions {
			readsWatch := false
			for _, u := range in.Uses() {
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
		if in.Spec && ir.Traps(in.Op) {
			rg := &region{spec: nd, homeEnd: nd.HomeEnd, confirm: confirm}
			if d, ok := in.Def(); ok {
				rg.watch.Add(d)
			}
			for _, u := range in.Uses() {
				rg.protected.Add(u)
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
}

// run performs the cycle-driven list scheduling loop.
func (s *refScheduler) run() error {
	cycle := 0
	guard := 0
	for {
		unscheduled := 0
		for _, nd := range s.g.Nodes {
			if !s.done[nd] {
				unscheduled++
			}
		}
		if unscheduled == 0 {
			return nil
		}
		if guard++; guard > 1000000 {
			return fmt.Errorf("scheduler did not converge")
		}

		issued := 0
		for issued < s.md.IssueWidth {
			cand := s.pick(cycle)
			if cand == nil {
				break
			}
			s.issue(cand, cycle, issued)
			issued++
		}
		if issued > 0 {
			cycle++
			continue
		}

		next := -1
		for _, nd := range s.g.Nodes {
			if s.done[nd] {
				continue
			}
			if at := s.earliest(nd); at > cycle && (next == -1 || at < next) {
				next = at
			}
		}
		if next > cycle {
			cycle = next
			continue
		}
		if cand := s.pickDeferred(cycle, deferRecovery); cand != nil {
			s.stats.ForcedIssues++
			s.issue(cand, cycle, 0)
			cycle++
			continue
		}
		if s.pickDeferred(cycle, deferStoreSep) != nil {
			return fmt.Errorf("store-buffer separation constraint is unsatisfiable (buffer size %d)", s.md.StoreBuffer)
		}
		return fmt.Errorf("dependence cycle detected")
	}
}

// pick returns the best ready, non-deferred candidate at cycle, or nil.
func (s *refScheduler) pick(cycle int) *depgraph.Node {
	var best *depgraph.Node
	for _, nd := range s.g.Nodes {
		if s.done[nd] || !s.ready(nd, cycle) || s.deferral(nd) != deferNo {
			continue
		}
		if s.md.Recovery {
			bc := best != nil && ir.IsControl(best.Instr.Op)
			nc := ir.IsControl(nd.Instr.Op)
			if nc != bc {
				if nc {
					best = nd
				}
				continue
			}
		}
		if best == nil || s.better(nd, best) {
			best = nd
		}
	}
	return best
}

// pickDeferred returns the best ready candidate held back for the given
// reason.
func (s *refScheduler) pickDeferred(cycle int, reason deferReason) *depgraph.Node {
	var best *depgraph.Node
	for _, nd := range s.g.Nodes {
		if s.done[nd] || !s.ready(nd, cycle) || s.deferral(nd) != reason {
			continue
		}
		if best == nil || s.better(nd, best) {
			best = nd
		}
	}
	return best
}

// pendingBranchesAbove counts the conditional branches that precede nd in
// the original order but are not yet scheduled.
func (s *refScheduler) pendingBranchesAbove(nd *depgraph.Node) int {
	n := 0
	for _, other := range s.g.Nodes {
		if !other.Sentinel && ir.IsBranch(other.Instr.Op) &&
			other.Index < nd.Index && !s.done[other] {
			n++
		}
	}
	return n
}

// better orders candidates by critical-path height, then by original
// program order for determinism.
func (s *refScheduler) better(a, b *depgraph.Node) bool {
	ha, hb := s.height[a], s.height[b]
	if ha != hb {
		return ha > hb
	}
	if a.Index != b.Index {
		return a.Index < b.Index
	}
	return !a.Sentinel && b.Sentinel
}

// emit rewrites the block's instructions in schedule order and resolves
// confirm_store indices.
func (s *refScheduler) emit(b *prog.Block) {
	nodes := make([]*depgraph.Node, len(s.g.Nodes))
	copy(nodes, s.g.Nodes)
	sort.Slice(nodes, func(i, j int) bool {
		ci, cj := s.cycleOf[nodes[i]], s.cycleOf[nodes[j]]
		if ci != cj {
			return ci < cj
		}
		return s.slotOf[nodes[i]] < s.slotOf[nodes[j]]
	})
	instrs := make([]*ir.Instr, len(nodes))
	pos := map[*depgraph.Node]int{}
	for i, nd := range nodes {
		nd.Instr.Cycle = s.cycleOf[nd]
		nd.Instr.Slot = s.slotOf[nd]
		instrs[i] = nd.Instr
		pos[nd] = i
	}
	for store, confirm := range s.pairs {
		n := int64(0)
		for i := pos[store] + 1; i < pos[confirm]; i++ {
			if ir.BufferedStore(instrs[i].Op) {
				n++
			}
		}
		confirm.Instr.Imm = n
	}
	b.Instrs = instrs
}
