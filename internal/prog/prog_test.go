package prog

import (
	"strings"
	"testing"

	"sentinel/internal/ir"
	"sentinel/internal/mem"
)

// sumProgram builds: sum integers stored at base..base+8n, print the sum.
//
//	entry: r1=base, r2=n, r3=0 (sum), r4=0 (i)
//	loop:  bge r4, r2, done
//	       ld r5, 0(r1); add r3,r3,r5; add r1,r1,8; add r4,r4,1; jmp loop
//	done:  mov r4, r3 ... wait putint takes arg reg; jsr putint with r3
func sumProgram(base int64, n int64) *Program {
	p := NewProgram()
	p.AddBlock("entry",
		ir.LI(ir.R(1), base),
		ir.LI(ir.R(2), n),
		ir.LI(ir.R(3), 0),
		ir.LI(ir.R(4), 0),
	)
	p.AddBlock("loop",
		ir.BR(ir.Bge, ir.R(4), ir.R(2), "done"),
	)
	p.AddBlock("body",
		ir.LOAD(ir.Ld, ir.R(5), ir.R(1), 0),
		ir.ALU(ir.Add, ir.R(3), ir.R(3), ir.R(5)),
		ir.ALUI(ir.Add, ir.R(1), ir.R(1), 8),
		ir.ALUI(ir.Add, ir.R(4), ir.R(4), 1),
		ir.JMP("loop"),
	)
	p.AddBlock("done",
		ir.JSR("putint", ir.R(3)),
		ir.HALT(),
	)
	return p
}

func sumMemory(base int64, vals []int64) *mem.Memory {
	m := mem.New()
	m.Map("data", base, len(vals)*8+8)
	for i, v := range vals {
		m.Write(base+int64(i)*8, 8, uint64(v))
	}
	return m
}

func TestRunSumLoop(t *testing.T) {
	p := sumProgram(0x1000, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Layout()
	m := sumMemory(0x1000, []int64{3, 5, 7, 11})
	res, err := Run(p, m, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 1 || res.Out[0] != 26 {
		t.Fatalf("Out = %v, want [26]", res.Out)
	}
	if res.Profile.Blocks["loop"] != 5 || res.Profile.Blocks["body"] != 4 {
		t.Errorf("block counts: %v", res.Profile.Blocks)
	}
	bs := res.Profile.Branches[BranchKey{"loop", 0}]
	if bs == nil || bs.Taken != 1 || bs.NotTaken != 4 {
		t.Errorf("branch stats: %+v", bs)
	}
	if got := res.Profile.Edges[EdgeKey{"body", "loop"}]; got != 4 {
		t.Errorf("edge body->loop = %d, want 4", got)
	}
	if got := res.Profile.Edges[EdgeKey{"loop", "done"}]; got != 1 {
		t.Errorf("edge loop->done = %d, want 1", got)
	}
}

func TestBranchProb(t *testing.T) {
	s := &BranchStat{Taken: 3, NotTaken: 1}
	if s.Prob() != 0.75 {
		t.Errorf("Prob = %v", s.Prob())
	}
	if (&BranchStat{}).Prob() != 0 {
		t.Error("empty stat must have probability 0")
	}
}

func TestLayoutAndInstrAt(t *testing.T) {
	p := sumProgram(0x1000, 1)
	n := p.Layout()
	if n != 12 {
		t.Fatalf("Layout = %d instructions, want 12", n)
	}
	in, b, idx := p.InstrAt(4)
	if in == nil || b.Label != "loop" || idx != 0 {
		t.Errorf("InstrAt(4) = %v in %v[%d]", in, b, idx)
	}
	if in2, _, _ := p.InstrAt(999); in2 != nil {
		t.Error("InstrAt out of range must return nil")
	}
}

func TestSuccessors(t *testing.T) {
	p := sumProgram(0x1000, 1)
	succ := func(label string) []string { return p.AppendSuccessors(nil, p.Block(label)) }
	if s := succ("entry"); len(s) != 1 || s[0] != "loop" {
		t.Errorf("entry succ = %v", s)
	}
	if s := succ("loop"); len(s) != 2 || s[0] != "done" || s[1] != "body" {
		t.Errorf("loop succ = %v", s)
	}
	if s := succ("body"); len(s) != 1 || s[0] != "loop" {
		t.Errorf("body succ = %v (jmp must suppress fallthrough)", s)
	}
	if s := succ("done"); len(s) != 0 {
		t.Errorf("done succ = %v (halt has no successors)", s)
	}
	// Appending keeps dst and dedupes only what it appends.
	if s := p.AppendSuccessors([]string{"loop"}, p.Block("body")); len(s) != 2 || s[0] != "loop" || s[1] != "loop" {
		t.Errorf("append to [loop] = %v, want [loop loop]", s)
	}
}

func TestValidateCatchesBadTargets(t *testing.T) {
	p := NewProgram()
	p.AddBlock("a", ir.BR(ir.Beq, ir.R(1), ir.R(2), "missing"), ir.HALT())
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("Validate = %v, want undefined-target error", err)
	}

	p2 := NewProgram()
	p2.AddBlock("a", ir.HALT(), ir.NOP())
	if err := p2.Validate(); err == nil {
		t.Error("halt in non-terminal position must be rejected")
	}

	p3 := NewProgram()
	if err := p3.Validate(); err == nil {
		t.Error("empty program must be rejected")
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	p := NewProgram()
	p.AddBlock("a", ir.HALT())
	defer func() {
		if recover() == nil {
			t.Error("duplicate label must panic")
		}
	}()
	p.AddBlock("a", ir.HALT())
}

func TestCloneIndependence(t *testing.T) {
	p := sumProgram(0x1000, 2)
	p.Layout()
	c := p.Clone()
	c.Block("loop").Instrs[0].Target = "body"
	if p.Block("loop").Instrs[0].Target != "done" {
		t.Error("clone must not alias instructions")
	}
	if c.Entry != p.Entry || len(c.Blocks) != len(p.Blocks) {
		t.Error("clone structure mismatch")
	}
}

func TestFaultHandlerRetry(t *testing.T) {
	p := NewProgram()
	p.AddBlock("main",
		ir.LI(ir.R(1), 0x1000),
		ir.LOAD(ir.Ld, ir.R(2), ir.R(1), 0),
		ir.JSR("putint", ir.R(2)),
		ir.HALT(),
	)
	p.Layout()
	m := mem.New()
	seg := m.Map("heap", 0x1000, 8)
	m.Write(0x1000, 8, 77)
	seg.Present = false // paged out

	calls := 0
	h := func(exc ExcInfo, env *Env) bool {
		calls++
		if exc.Kind != ir.ExcPageFault {
			t.Errorf("fault kind = %v", exc.Kind)
		}
		seg.Present = true // the OS maps the page in
		return true
	}
	res, err := Run(p, m, Options{Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(res.Out) != 1 || res.Out[0] != 77 {
		t.Errorf("calls=%d out=%v", calls, res.Out)
	}
}

func TestUnhandledExceptionAborts(t *testing.T) {
	p := NewProgram()
	p.AddBlock("main",
		ir.LI(ir.R(1), 5),
		ir.LI(ir.R(2), 0),
		ir.ALU(ir.Div, ir.R(3), ir.R(1), ir.R(2)),
		ir.HALT(),
	)
	p.Layout()
	_, err := Run(p, mem.New(), Options{})
	exc, ok := err.(*ExcInfo)
	if !ok || exc.Kind != ir.ExcDivZero || exc.PC != 2 {
		t.Fatalf("err = %v, want divide-by-zero at pc 2", err)
	}
}

func TestInstructionBudget(t *testing.T) {
	p := NewProgram()
	p.AddBlock("spin", ir.JMP("spin"))
	p.Layout()
	if _, err := Run(p, mem.New(), Options{MaxInstrs: 100}); err == nil {
		t.Fatal("runaway loop must hit the instruction budget")
	}
}

func TestFPPath(t *testing.T) {
	p := NewProgram()
	p.AddBlock("main",
		ir.LI(ir.R(1), 3),
		ir.UN(ir.Cvif, ir.F(1), ir.R(1)),           // f1 = 3.0
		ir.ALU(ir.Fadd, ir.F(2), ir.F(1), ir.F(1)), // f2 = 6.0
		ir.ALU(ir.Fmul, ir.F(3), ir.F(2), ir.F(1)), // f3 = 18.0
		ir.UN(ir.Cvfi, ir.R(2), ir.F(3)),           // r2 = 18
		ir.JSR("putint", ir.R(2)),
		ir.HALT(),
	)
	p.Layout()
	res, err := Run(p, mem.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 1 || res.Out[0] != 18 {
		t.Fatalf("Out = %v, want [18]", res.Out)
	}
}

func TestR0HardwiredZero(t *testing.T) {
	p := NewProgram()
	p.AddBlock("main",
		ir.LI(ir.R(0), 42), // discarded
		ir.ALUI(ir.Add, ir.R(1), ir.R(0), 7),
		ir.JSR("putint", ir.R(1)),
		ir.HALT(),
	)
	p.Layout()
	res, err := Run(p, mem.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out[0] != 7 {
		t.Fatalf("Out = %v; r0 must stay zero", res.Out)
	}
}

func TestProgramString(t *testing.T) {
	p := sumProgram(0x1000, 1)
	s := p.String()
	for _, want := range []string{"entry:", "loop:", "ld r5, 0(r1)", "jsr putint"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
