// Package dataflow implements live-variable analysis over MIR programs.
// Liveness answers the two questions sentinel scheduling needs:
//
//  1. Dependence-graph reduction (§3.3): a control dependence from branch BR
//     to instruction I may be removed only if dest(I) is not live when BR is
//     taken, i.e. not live-in at BR's target block.
//  2. Uninitialized data (§3.5): registers live-in at the program entry may
//     be read before written and need their exception tags reset.
package dataflow

import (
	"math/bits"

	"sentinel/internal/ir"
	"sentinel/internal/prog"
)

// RegSet is a bitset over the 128 physical registers.
type RegSet [2]uint64

// Add inserts r.
func (s *RegSet) Add(r ir.Reg) {
	i := r.Index()
	s[i>>6] |= 1 << (i & 63)
}

// Remove deletes r.
func (s *RegSet) Remove(r ir.Reg) {
	i := r.Index()
	s[i>>6] &^= 1 << (i & 63)
}

// Has reports membership.
func (s RegSet) Has(r ir.Reg) bool {
	i := r.Index()
	return s[i>>6]&(1<<(i&63)) != 0
}

// Union returns s ∪ t.
func (s RegSet) Union(t RegSet) RegSet { return RegSet{s[0] | t[0], s[1] | t[1]} }

// Intersect returns s ∩ t.
func (s RegSet) Intersect(t RegSet) RegSet { return RegSet{s[0] & t[0], s[1] & t[1]} }

// Diff returns s \ t.
func (s RegSet) Diff(t RegSet) RegSet { return RegSet{s[0] &^ t[0], s[1] &^ t[1]} }

// Empty reports whether the set has no members.
func (s RegSet) Empty() bool { return s[0] == 0 && s[1] == 0 }

// Regs enumerates the members.
func (s RegSet) Regs() []ir.Reg { return s.AppendRegs(nil) }

// AppendRegs appends the members to dst, integer registers first, each
// class in register order, and returns the extended slice.
func (s RegSet) AppendRegs(dst []ir.Reg) []ir.Reg {
	for m := s[0]; m != 0; m &= m - 1 {
		dst = append(dst, ir.R(bits.TrailingZeros64(m)))
	}
	for m := s[1]; m != 0; m &= m - 1 {
		dst = append(dst, ir.F(bits.TrailingZeros64(m)))
	}
	return dst
}

// AllocFree adds to s the lowest-numbered register of class that s does not
// hold, never r0 (the hardwired zero), and returns it; ok is false when
// every register of the class is in s. Each class fills one word of the set
// (NumIntRegs == NumFPRegs == 64).
func (s *RegSet) AllocFree(class ir.RegClass) (r ir.Reg, ok bool) {
	w, mk, free := 0, ir.R, ^s[0]&^1
	if class == ir.FPClass {
		w, mk, free = 1, ir.F, ^s[1]
	}
	if free == 0 {
		return ir.NoReg, false
	}
	n := bits.TrailingZeros64(free)
	s[w] |= 1 << n
	return mk(n), true
}

// UsedRegs returns every register p's instructions name as an operand or
// destination, r0 included.
func UsedRegs(p *prog.Program) RegSet {
	var used RegSet
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			for _, r := range [3]ir.Reg{in.Dest, in.Src1, in.Src2} {
				if r.Valid() {
					used.Add(r)
				}
			}
		}
	}
	return used
}

// Liveness holds the live-in and live-out sets of every block, by block
// position in the program.
type Liveness struct {
	In  []RegSet
	Out []RegSet

	p *prog.Program
}

// LiveIn returns the live-in set of the labelled block (empty when no block
// has the label), for tests and tools.
func (lv *Liveness) LiveIn(label string) RegSet {
	if i := lv.p.Index(label); i >= 0 {
		return lv.In[i]
	}
	return RegSet{}
}

// blockUseDef computes the upward-exposed uses and the definitions of a
// block (uses before any local definition).
func blockUseDef(b *prog.Block) (use, def RegSet) {
	for _, in := range b.Instrs {
		u1, u2 := in.Uses2()
		for _, u := range [2]ir.Reg{u1, u2} {
			if u.Valid() && !def.Has(u) {
				use.Add(u)
			}
		}
		if d, ok := in.Def(); ok {
			def.Add(d)
		}
	}
	return use, def
}

// Compute runs the standard backward iterative live-variable analysis on p,
// which must be laid out (prog.Program.Layout). It works on both
// basic-block programs and superblock programs (where side-exit branches
// contribute their targets as successors). The fixpoint runs over block
// positions, so an iteration allocates nothing.
func Compute(p *prog.Program) *Liveness {
	n := len(p.Blocks)
	// Block i's successors are succ[off[i]:off[i+1]].
	off := make([]int32, n+1)
	succ := make([]int32, 0, 2*n)
	for i := range p.Blocks {
		succ = p.AppendSuccessors(succ, i)
		off[i+1] = int32(len(succ))
	}
	sets := make([]RegSet, 4*n)
	use, def, in, out := sets[:n], sets[n:2*n], sets[2*n:3*n:3*n], sets[3*n:]
	for i, b := range p.Blocks {
		use[i], def[i] = blockUseDef(b)
	}
	for changed := true; changed; {
		changed = false
		// Reverse program order converges quickly for mostly-forward CFGs.
		for i := n - 1; i >= 0; i-- {
			var o RegSet
			for _, j := range succ[off[i]:off[i+1]] {
				o = o.Union(in[j])
			}
			if ni := use[i].Union(o.Diff(def[i])); o != out[i] || ni != in[i] {
				out[i], in[i] = o, ni
				changed = true
			}
		}
	}
	return &Liveness{In: in, Out: out, p: p}
}

// LiveAtTaken returns the set of registers live when the branch or jump in
// is taken: the live-in set of its resolved target block. For any other
// instruction it returns the empty set.
func (lv *Liveness) LiveAtTaken(in *ir.Instr) RegSet {
	if (!ir.IsBranch(in.Op) && in.Op != ir.Jmp) || in.TargetIndex < 0 {
		return RegSet{}
	}
	return lv.In[in.TargetIndex]
}

// UninitializedAtEntry returns the registers that may be read before being
// written on some execution path: exactly the live-in set of the entry
// block. Sentinel models must reset these registers' exception tags before
// use (§3.5).
func (lv *Liveness) UninitializedAtEntry() RegSet {
	return lv.LiveIn(lv.p.Entry)
}

// LiveWithinBlock computes, for each instruction index i in block bi, the
// set of registers live immediately AFTER instruction i executes, taking
// side exits into account. The before-set of instruction i equals the
// after-set of i-1, which callers rarely need.
func (lv *Liveness) LiveWithinBlock(bi int) []RegSet {
	b := lv.p.Blocks[bi]
	after := make([]RegSet, len(b.Instrs))
	// Walk backward from the block's fall-through live-out. Side exits
	// contribute their targets' live-in sets at the branch sites inside the
	// loop, so the seed is the fall-through path only: the live-in of the
	// next block, or empty if the block cannot fall through (terminal Halt
	// or Jmp — a terminal Jmp's target is unioned in by the loop).
	var cur RegSet
	if lv.p.FallsThrough(bi) {
		cur = lv.In[bi+1]
	}
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		after[i] = cur
		in := b.Instrs[i]
		if d, ok := in.Def(); ok {
			cur.Remove(d)
		}
		u1, u2 := in.Uses2()
		for _, u := range [2]ir.Reg{u1, u2} {
			if u.Valid() {
				cur.Add(u)
			}
		}
		cur = cur.Union(lv.LiveAtTaken(in))
	}
	return after
}
