package dataflow

import (
	"testing"
	"testing/quick"

	"sentinel/internal/ir"
	"sentinel/internal/prog"
)

func TestRegSetBasics(t *testing.T) {
	var s RegSet
	if !s.Empty() {
		t.Fatal("zero RegSet must be empty")
	}
	s.Add(ir.R(3))
	s.Add(ir.F(10))
	if !s.Has(ir.R(3)) || !s.Has(ir.F(10)) || s.Has(ir.R(10)) {
		t.Error("membership wrong")
	}
	if got := s.Regs(); len(got) != 2 || got[0] != ir.R(3) || got[1] != ir.F(10) {
		t.Errorf("Regs = %v", got)
	}
	s.Remove(ir.R(3))
	if s.Has(ir.R(3)) {
		t.Error("Remove failed")
	}
	var a, b RegSet
	a.Add(ir.R(1))
	b.Add(ir.R(2))
	u := a.Union(b)
	if !u.Has(ir.R(1)) || !u.Has(ir.R(2)) {
		t.Error("Union wrong")
	}
	d := u.Diff(b)
	if !d.Has(ir.R(1)) || d.Has(ir.R(2)) {
		t.Error("Diff wrong")
	}
}

// diamond builds:
//
//	entry: li r1,1 ; beq r1,0,right
//	left:  li r2,10 ; jmp join
//	right: li r3,20        <- r2 NOT defined here
//	join:  add r4,r2,r3 ; jsr putint r4 ; halt
func diamond() *prog.Program {
	p := prog.NewProgram()
	p.AddBlock("entry",
		ir.LI(ir.R(1), 1),
		ir.BRI(ir.Beq, ir.R(1), 0, "right"),
	)
	p.AddBlock("left", ir.LI(ir.R(2), 10), ir.JMP("join"))
	p.AddBlock("right", ir.LI(ir.R(3), 20))
	p.AddBlock("join",
		ir.ALU(ir.Add, ir.R(4), ir.R(2), ir.R(3)),
		ir.JSR("putint", ir.R(4)),
		ir.HALT(),
	)
	p.Layout()
	return p
}

func TestLivenessDiamond(t *testing.T) {
	p := diamond()
	lv := Compute(p)

	// r2 and r3 are live into join.
	join := lv.LiveIn("join")
	if !join.Has(ir.R(2)) || !join.Has(ir.R(3)) {
		t.Errorf("join live-in = %v", join.Regs())
	}
	if join.Has(ir.R(1)) || join.Has(ir.R(4)) {
		t.Errorf("join live-in too big: %v", join.Regs())
	}
	// r3 is live into left (defined only in right but used in join — left
	// path reads it uninitialized); r2 is not live into left (defined there).
	left := lv.LiveIn("left")
	if !left.Has(ir.R(3)) || left.Has(ir.R(2)) {
		t.Errorf("left live-in = %v", left.Regs())
	}
	// Entry sees uninitialized uses of r2 (via right path) and r3 (via left
	// path).
	uninit := lv.UninitializedAtEntry()
	if !uninit.Has(ir.R(2)) || !uninit.Has(ir.R(3)) {
		t.Errorf("uninitialized at entry = %v", uninit.Regs())
	}
	if uninit.Has(ir.R(1)) {
		t.Errorf("r1 defined before use, must not be in %v", uninit.Regs())
	}
}

func TestLiveAtTaken(t *testing.T) {
	p := diamond()
	lv := Compute(p)
	entry := p.Block("entry")
	taken := lv.LiveAtTaken(entry.Instrs[1]) // beq -> right
	if !taken.Has(ir.R(2)) {
		// right does not define r2, join uses it.
		t.Errorf("live at taken(entry beq) = %v, want r2 in it", taken.Regs())
	}
	if taken.Has(ir.R(1)) {
		t.Errorf("r1 dead at right: %v", taken.Regs())
	}
	// Non-branch instruction: empty set.
	if !lv.LiveAtTaken(entry.Instrs[0]).Empty() {
		t.Error("LiveAtTaken of non-branch must be empty")
	}
}

// loop checks convergence with a back edge: value carried around the loop
// stays live at the loop head.
func TestLivenessLoop(t *testing.T) {
	p := prog.NewProgram()
	p.AddBlock("entry", ir.LI(ir.R(1), 0), ir.LI(ir.R(2), 10))
	p.AddBlock("loop",
		ir.ALUI(ir.Add, ir.R(1), ir.R(1), 1),
		ir.BR(ir.Blt, ir.R(1), ir.R(2), "loop"),
	)
	p.AddBlock("exit", ir.JSR("putint", ir.R(1)), ir.HALT())
	p.Layout()
	lv := Compute(p)
	in := lv.LiveIn("loop")
	if !in.Has(ir.R(1)) || !in.Has(ir.R(2)) {
		t.Errorf("loop live-in = %v, want r1 and r2", in.Regs())
	}
	if !lv.UninitializedAtEntry().Empty() {
		t.Errorf("nothing is uninitialized: %v", lv.UninitializedAtEntry().Regs())
	}
}

func TestLiveWithinBlock(t *testing.T) {
	// Superblock with a side exit: r5 used only at "out" target.
	p := prog.NewProgram()
	sb := p.AddBlock("sb",
		ir.LI(ir.R(5), 1),                         // 0
		ir.BRI(ir.Beq, ir.R(1), 0, "out"),         // 1: side exit, r5 live at out
		ir.LI(ir.R(5), 2),                         // 2: redefines r5
		ir.ALU(ir.Add, ir.R(6), ir.R(5), ir.R(5)), // 3
		ir.JSR("putint", ir.R(6)),                 // 4
		ir.HALT(),                                 // 5
	)
	sb.Superblock = true
	p.AddBlock("out", ir.JSR("putint", ir.R(5)), ir.HALT())
	p.Layout()
	lv := Compute(p)
	after := lv.LiveWithinBlock(0)
	if len(after) != 6 {
		t.Fatalf("len(after) = %d", len(after))
	}
	// After instr 0 (li r5), r5 is live (needed by the side exit).
	if !after[0].Has(ir.R(5)) {
		t.Errorf("after[0] = %v, want r5 live (side exit uses it)", after[0].Regs())
	}
	// After instr 3, r5 is dead, r6 live.
	if after[3].Has(ir.R(5)) || !after[3].Has(ir.R(6)) {
		t.Errorf("after[3] = %v", after[3].Regs())
	}
}

// Property: live-in(b) == use(b) ∪ (live-out(b) − def(b)) after convergence,
// for random linear programs.
func TestLivenessFixpointQuick(t *testing.T) {
	build := func(seed uint32) *prog.Program {
		p := prog.NewProgram()
		s := seed
		rnd := func(n int) int { s = s*1664525 + 1013904223; return int(s>>16) % n }
		var instrs []*ir.Instr
		for i := 0; i < 12; i++ {
			d, a, b := ir.R(1+rnd(6)), ir.R(1+rnd(6)), ir.R(1+rnd(6))
			instrs = append(instrs, ir.ALU(ir.Add, d, a, b))
		}
		instrs = append(instrs, ir.HALT())
		p.AddBlock("b0", instrs...)
		p.Layout()
		return p
	}
	f := func(seed uint32) bool {
		p := build(seed)
		lv := Compute(p)
		use, def := blockUseDef(p.Blocks[0])
		want := use.Union(lv.Out[0].Diff(def))
		return lv.In[0] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
