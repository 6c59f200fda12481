package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
	"sentinel/internal/workload"
)

// loopProgram is a counting loop whose backward branch is taken n-1 times:
// every iteration is a block redirect through the simulator's transfer path.
func loopProgram(n int64) *prog.Program {
	p := prog.NewProgram()
	p.AddBlock("entry",
		ir.LI(ir.R(1), 0),
		ir.LI(ir.R(2), n),
	)
	p.AddBlock("loop",
		ir.ALUI(ir.Add, ir.R(1), ir.R(1), 1),
		ir.BR(ir.Blt, ir.R(1), ir.R(2), "loop"),
	)
	p.AddBlock("done",
		ir.JSR("putint", ir.R(1)),
		ir.HALT(),
	)
	p.Layout()
	return p
}

// TestProgIndexBuiltOncePerRun asserts the satellite property: one Run builds
// its PC index exactly once, no matter how many redirects the program takes
// (the seed built a map lazily per run; the dense index must not regress to
// per-redirect or per-recovery rebuilds).
func TestProgIndexBuiltOncePerRun(t *testing.T) {
	p := loopProgram(500)
	md := machine.Base(2, machine.Sentinel)

	before := progIndexBuilds.Load()
	res, err := Run(p, md, mem.New(), Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := progIndexBuilds.Load() - before; got != 1 {
		t.Errorf("Run built the PC index %d times, want exactly 1 (499 redirects)", got)
	}
	if len(res.Out) != 1 || res.Out[0] != 500 {
		t.Errorf("out = %v, want [500]", res.Out)
	}
	if res.Stats.BranchRedirects != 499 {
		t.Errorf("redirects = %d, want 499", res.Stats.BranchRedirects)
	}
}

// TestProgIndexSharedAcrossRuns asserts that a caller-provided index is
// reused: N runs of the same program cost one construction, total.
func TestProgIndexSharedAcrossRuns(t *testing.T) {
	p := loopProgram(100)
	md := machine.Base(2, machine.Sentinel)

	before := progIndexBuilds.Load()
	idx := NewProgIndex(p)
	for i := 0; i < 5; i++ {
		res, err := Run(p, md, mem.New(), Options{Index: idx})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if len(res.Out) != 1 || res.Out[0] != 100 {
			t.Fatalf("run %d: out = %v, want [100]", i, res.Out)
		}
	}
	if got := progIndexBuilds.Load() - before; got != 1 {
		t.Errorf("5 runs with a shared index built %d indices, want 1", got)
	}
}

// TestProgIndexForeignProgram asserts the safety valve: an index built for a
// different program is ignored, not trusted.
func TestProgIndexForeignProgram(t *testing.T) {
	pa := loopProgram(10)
	pb := loopProgram(20)
	idx := NewProgIndex(pa)
	res, err := Run(pb, machine.Base(2, machine.Sentinel), mem.New(), Options{Index: idx})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Out) != 1 || res.Out[0] != 20 {
		t.Errorf("out = %v, want [20] (index for another program must be rebuilt)", res.Out)
	}
}

// TestProgIndexRecoveryLookup exercises the recovery path through the index:
// a speculative load faults, the sentinel signals, and the handler-driven
// restart must land on the reported PC via the index's position lookup.
func TestProgIndexRecoveryLookup(t *testing.T) {
	mk := func(in *ir.Instr, cyc, slot int, spec bool) *ir.Instr {
		in.Cycle, in.Slot, in.Spec = cyc, slot, spec
		return in
	}
	p := prog.NewProgram()
	p.AddBlock("entry",
		mk(ir.LI(ir.R(2), 0x9000), 0, 0, false), // unmapped until repaired
	)
	p.AddBlock("main",
		mk(ir.LOAD(ir.Ld, ir.R(1), ir.R(2), 0), 0, 0, true),
		mk(ir.CHECK(ir.R(1)), 1, 0, false),
		mk(ir.JSR("putint", ir.R(1)), 2, 0, false),
		mk(ir.HALT(), 3, 0, false),
	)
	p.Layout()
	m := mem.New()
	recovered := 0
	res, err := Run(p, machine.Base(2, machine.Sentinel).WithRecovery(), m, Options{
		Handler: func(exc Exception, mach *Machine) bool {
			recovered++
			if exc.ReportedPC != 1 {
				t.Errorf("reported pc = %d, want 1 (the speculative load)", exc.ReportedPC)
			}
			m.Map("late", 0x9000, 64)
			m.Write(0x9000, 8, 7)
			return true
		},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if recovered != 1 {
		t.Errorf("recoveries = %d, want 1", recovered)
	}
	if len(res.Out) != 1 || res.Out[0] != 7 {
		t.Errorf("out = %v, want [7] (re-executed load after repair)", res.Out)
	}
}

// TestProgIndexFootprint bounds the index's retained size: the operand
// record is 16 bytes, and with the block starts and the per-branch target
// and static prediction the whole index stays within 20 bytes per
// instruction on every workload's schedule (the cached schedules of a
// serving process each hold one).
func TestProgIndexFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(opRec{}); sz != 16 {
		t.Errorf("opRec is %d bytes, want 16", sz)
	}
	md := machine.Base(8, machine.SentinelStores)
	for _, w := range workload.All() {
		sched, _ := schedFor(t, w.Name, md)
		ix := NewProgIndex(sched)
		if ix.posMap != nil {
			t.Fatalf("%s: laid-out schedule fell back to the PC map", w.Name)
		}
		bytes := cap(ix.ops)*int(unsafe.Sizeof(opRec{})) +
			cap(ix.opsAt)*int(unsafe.Sizeof(int32(0))) +
			cap(ix.brTarget)*int(unsafe.Sizeof(int32(0))) +
			cap(ix.staticTaken)*int(unsafe.Sizeof(false))
		per := float64(bytes) / float64(len(ix.ops))
		if per > 20 {
			t.Errorf("%s: index retains %.2f bytes per instruction, want at most 20", w.Name, per)
		}
		t.Logf("%s: %d instrs, %.2f bytes/instr", w.Name, len(ix.ops), per)
	}
}

// TestProgIndexLookup checks the recovery-restart lookup against every
// instruction's position, including across empty blocks, and that PCs
// outside the program are not found.
func TestProgIndexLookup(t *testing.T) {
	p := prog.NewProgram()
	p.AddBlock("a", ir.LI(ir.R(1), 1), ir.LI(ir.R(2), 2))
	p.AddBlock("empty")
	p.AddBlock("b", ir.LI(ir.R(3), 3))
	p.AddBlock("empty2")
	p.AddBlock("c", ir.LI(ir.R(4), 4), ir.HALT())
	p.Layout()
	ix := NewProgIndex(p)
	for bi, b := range p.Blocks {
		for ii, in := range b.Instrs {
			rp, ok := ix.lookup(in.PC)
			if !ok || rp != (pos{int32(bi), int32(ii)}) {
				t.Errorf("lookup(%d) = %v %v, want {%d %d}", in.PC, rp, ok, bi, ii)
			}
		}
	}
	for _, pc := range []int{-1, 5, 100} {
		if _, ok := ix.lookup(pc); ok {
			t.Errorf("lookup(%d) found a position outside the program", pc)
		}
	}
}

// TestInstructionBudget pins the budget cut: Run checks the budget once per
// block visit, and must fail exactly when the program needs more dynamic
// instructions than allowed, whichever instruction of whichever block the
// budget runs out on.
func TestInstructionBudget(t *testing.T) {
	p := loopProgram(10)
	md := machine.Base(2, machine.Sentinel)
	full, err := Run(p, md, mem.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := full.Instrs
	for _, budget := range []int64{-1, 1, 2, 3, 4, 5, n / 2, n - 3, n - 2, n - 1, n, n + 1} {
		res, err := Run(p, md, mem.New(), Options{MaxInstrs: budget})
		if budget < n {
			want := fmt.Sprintf("sim: instruction budget exceeded (%d)", budget)
			if err == nil || err.Error() != want {
				t.Errorf("budget %d of %d: err = %v, want %q", budget, n, err, want)
			}
			continue
		}
		if err != nil || res.Instrs != n || res.Cycles != full.Cycles {
			t.Errorf("budget %d of %d: instrs %d cycles %d err %v, want %d %d <nil>",
				budget, n, res.Instrs, res.Cycles, err, n, full.Cycles)
		}
	}
}
