package superblock

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/dataflow"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
)

// runBoth executes the original and the formed program on clones of the same
// memory and compares architectural results.
func runBoth(t *testing.T, p *prog.Program, m *mem.Memory, opts Options) (*prog.Result, *prog.Program) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("original invalid: %v", err)
	}
	p.Layout()
	ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	f := Form(p, ref.Profile, opts)
	if err := f.Validate(); err != nil {
		t.Fatalf("formed program invalid: %v\n%s", err, f)
	}
	f.Layout()
	got, err := prog.Run(f, m.Clone(), prog.Options{})
	if err != nil {
		t.Fatalf("formed run: %v\n%s", err, f)
	}
	if got.MemSum != ref.MemSum {
		t.Errorf("memory checksum mismatch: %#x vs %#x\n%s", got.MemSum, ref.MemSum, f)
	}
	if len(got.Out) != len(ref.Out) {
		t.Fatalf("output length %d vs %d", len(got.Out), len(ref.Out))
	}
	for i := range got.Out {
		if got.Out[i] != ref.Out[i] {
			t.Errorf("out[%d] = %d, want %d", i, got.Out[i], ref.Out[i])
		}
	}
	return ref, f
}

// sumLoop: classic counted loop over an array.
func sumLoop(n int) (*prog.Program, *mem.Memory) {
	p := prog.NewProgram()
	p.AddBlock("entry",
		ir.LI(ir.R(1), 0x1000),
		ir.LI(ir.R(2), int64(n)),
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
	m := mem.New()
	m.Map("data", 0x1000, n*8+8)
	for i := 0; i < n; i++ {
		m.Write(0x1000+int64(i)*8, 8, uint64(i*3+1))
	}
	return p, m
}

func TestFormSumLoopPreservesSemantics(t *testing.T) {
	p, m := sumLoop(37)
	_, f := runBoth(t, p, m, Options{})
	var sb *prog.Block
	for _, b := range f.Blocks {
		if b.Superblock {
			sb = b
			break
		}
	}
	if sb == nil {
		t.Fatalf("no superblock formed:\n%s", f)
	}
	// The loop+body trace must have been merged and unrolled 4x: four load
	// instructions in the superblock.
	loads := 0
	for _, in := range sb.Instrs {
		if in.Op == ir.Ld {
			loads++
		}
	}
	if loads != 4 {
		t.Errorf("superblock has %d loads, want 4 (unrolled):\n%s", loads, f)
	}
}

func TestFormNoUnroll(t *testing.T) {
	p, m := sumLoop(10)
	_, f := runBoth(t, p, m, Options{Unroll: 1})
	for _, b := range f.Blocks {
		if !b.Superblock {
			continue
		}
		loads := 0
		for _, in := range b.Instrs {
			if in.Op == ir.Ld {
				loads++
			}
		}
		if loads != 1 {
			t.Errorf("Unroll:1 must keep a single loop body, got %d loads", loads)
		}
	}
}

// biasedDiamond: a branch taken 1 time in 20; the hot path should be merged
// and the cold path redirected through a duplicate of the join block.
func biasedDiamond() (*prog.Program, *mem.Memory) {
	p := prog.NewProgram()
	p.AddBlock("entry",
		ir.LI(ir.R(1), 0x1000),
		ir.LI(ir.R(2), 20), // n
		ir.LI(ir.R(3), 0),  // i
		ir.LI(ir.R(7), 0),  // acc
	)
	p.AddBlock("head",
		ir.BR(ir.Bge, ir.R(3), ir.R(2), "exit"),
		ir.LOAD(ir.Ld, ir.R(4), ir.R(1), 0),
		ir.BRI(ir.Bne, ir.R(4), 0, "cold"), // mostly 0 values: rarely taken
	)
	p.AddBlock("hot",
		ir.ALUI(ir.Add, ir.R(7), ir.R(7), 1),
	)
	p.AddBlock("join",
		ir.ALUI(ir.Add, ir.R(1), ir.R(1), 8),
		ir.ALUI(ir.Add, ir.R(3), ir.R(3), 1),
		ir.JMP("head"),
	)
	p.AddBlock("cold",
		ir.ALU(ir.Add, ir.R(7), ir.R(7), ir.R(4)),
		ir.JMP("join"),
	)
	p.AddBlock("exit",
		ir.JSR("putint", ir.R(7)),
		ir.HALT(),
	)
	m := mem.New()
	m.Map("data", 0x1000, 21*8)
	m.Write(0x1000+8*7, 8, 100) // one nonzero element -> cold path once
	return p, m
}

func TestFormTailDuplication(t *testing.T) {
	p, m := biasedDiamond()
	_, f := runBoth(t, p, m, Options{})
	// join must have been absorbed; the cold path must reach a duplicate.
	var sawDup bool
	for _, b := range f.Blocks {
		if b.Label == "join.dup" {
			sawDup = true
		}
	}
	if !sawDup {
		t.Fatalf("expected join.dup in formed program:\n%s", f)
	}
	cold := f.Block("cold")
	if cold == nil {
		t.Fatal("cold block missing")
	}
	found := false
	for _, in := range cold.Instrs {
		if in.Op == ir.Jmp && in.Target == "join.dup" {
			found = true
		}
	}
	if !found {
		t.Errorf("cold must jump to join.dup:\n%s", f)
	}
	// No block other than superblock heads may be branch-targeted if it was
	// absorbed: references to "hot"/"join" must be gone outside dups.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if (ir.IsBranch(in.Op) || in.Op == ir.Jmp) && (in.Target == "hot" || in.Target == "join") {
				t.Errorf("stale reference to absorbed block %q in %q", in.Target, b.Label)
			}
		}
	}
}

// TestFormTakenEdgeTrace exercises branch inversion: the hot successor is
// reached via the TAKEN edge.
func TestFormTakenEdgeTrace(t *testing.T) {
	p := prog.NewProgram()
	p.AddBlock("entry",
		ir.LI(ir.R(1), 0),
		ir.LI(ir.R(2), 30),
	)
	p.AddBlock("head",
		ir.BR(ir.Blt, ir.R(1), ir.R(2), "work"), // taken 30x, falls to exit once
	)
	p.AddBlock("exit",
		ir.JSR("putint", ir.R(3)),
		ir.HALT(),
	)
	p.AddBlock("work",
		ir.ALUI(ir.Add, ir.R(3), ir.R(3), 5),
		ir.ALUI(ir.Add, ir.R(1), ir.R(1), 1),
		ir.JMP("head"),
	)
	m := mem.New()
	_, f := runBoth(t, p, m, Options{})
	// head+work should merge with the branch inverted to bge -> exit.
	sb := f.Block("head")
	if sb == nil || !sb.Superblock {
		t.Fatalf("head not a superblock:\n%s", f)
	}
	if sb.Instrs[0].Op != ir.Bge || sb.Instrs[0].Target != "exit" {
		t.Errorf("first instr = %v, want inverted branch bge -> exit", sb.Instrs[0])
	}
}

// TestFormColdProgramUntouched: with no profile counts, formation must leave
// the program structurally intact (no superblocks).
func TestFormColdProgramUntouched(t *testing.T) {
	p, m := sumLoop(3)
	p.Layout()
	ref, err := prog.Run(p, m, prog.Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	empty := ref.Profile
	clear(empty.Blocks)
	clear(empty.Taken)
	clear(empty.Fall)
	f := Form(p, empty, Options{})
	for _, b := range f.Blocks {
		if b.Superblock {
			t.Errorf("cold program grew a superblock %q", b.Label)
		}
	}
	if len(f.Blocks) != len(p.Blocks) {
		t.Errorf("block count changed: %d vs %d", len(f.Blocks), len(p.Blocks))
	}
}

// TestFormDoesNotMutateInput verifies Form clones before surgery.
func TestFormDoesNotMutateInput(t *testing.T) {
	p, m := sumLoop(5)
	p.Layout()
	before := p.String()
	ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	Form(p, ref.Profile, Options{})
	if p.String() != before {
		t.Error("Form mutated its input program")
	}
}

// TestInvertBranch checks the involution property.
func TestInvertBranch(t *testing.T) {
	for _, op := range []ir.Op{ir.Beq, ir.Bne, ir.Blt, ir.Bge} {
		if invertBranch(invertBranch(op)) != op {
			t.Errorf("invert(invert(%v)) != %v", op, op)
		}
		if invertBranch(op) == op {
			t.Errorf("invert(%v) must differ", op)
		}
	}
}

// TestFormNestedLoops: an inner hot loop inside an outer loop; semantics
// must be preserved and the inner loop should become a superblock.
func TestFormNestedLoops(t *testing.T) {
	p := prog.NewProgram()
	p.AddBlock("entry",
		ir.LI(ir.R(1), 0), // i
		ir.LI(ir.R(9), 0), // acc
	)
	p.AddBlock("outer",
		ir.BRI(ir.Bge, ir.R(1), 6, "done"),
		ir.LI(ir.R(2), 0), // j
	)
	p.AddBlock("inner",
		ir.ALU(ir.Add, ir.R(9), ir.R(9), ir.R(2)),
		ir.ALUI(ir.Add, ir.R(2), ir.R(2), 1),
		ir.BRI(ir.Blt, ir.R(2), 15, "inner"),
	)
	p.AddBlock("tail",
		ir.ALUI(ir.Add, ir.R(1), ir.R(1), 1),
		ir.JMP("outer"),
	)
	p.AddBlock("done",
		ir.JSR("putint", ir.R(9)),
		ir.HALT(),
	)
	_, f := runBoth(t, p, mem.New(), Options{})
	sb := f.Block("inner")
	if sb == nil || !sb.Superblock {
		t.Fatalf("inner loop not a superblock:\n%s", f)
	}
}

// TestSharedProgramReaders runs the reference interpreter, liveness,
// formation and scheduling concurrently on one laid-out program, as the
// evaluation runner does with its cached builds and forms: every reader
// must see the same program and produce the result a lone reader does
// (run under -race, a write to a shared program fails the test). Form and
// Schedule are the cloning paths: each copies the shared program into
// block slabs of its own before rewriting it.
func TestSharedProgramReaders(t *testing.T) {
	p, m := biasedDiamond()
	p.Layout()
	ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	formed := Form(p, ref.Profile, Options{})
	want := formed.String()
	wantLive := dataflow.Compute(p).In
	md := machine.Base(8, machine.SentinelStores)
	schedule := func(q *prog.Program) (string, error) {
		sched, _, err := core.Schedule(q, md)
		if err != nil {
			return "", err
		}
		return asm.FormatScheduled(sched), nil
	}
	wantSched, err := schedule(formed)
	if err != nil {
		t.Fatal(err)
	}
	wantSchedP, err := schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(4)
		go func() {
			defer wg.Done()
			res, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
			if err == nil && !slices.Equal(res.Profile.Blocks, ref.Profile.Blocks) {
				err = fmt.Errorf("block counts %v, want %v", res.Profile.Blocks, ref.Profile.Blocks)
			}
			if err == nil && !slices.Equal(dataflow.Compute(p).In, wantLive) {
				err = fmt.Errorf("liveness differs from a lone run")
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			var err error
			if got := Form(p, ref.Profile, Options{}).String(); got != want {
				err = fmt.Errorf("formed program differs from a lone formation:\n%s", got)
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			got, err := schedule(formed)
			if err == nil && got != wantSched {
				err = fmt.Errorf("schedule of the shared formed program differs from a lone one:\n%s", got)
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			got, err := schedule(p)
			if err == nil && got != wantSchedP {
				err = fmt.Errorf("schedule of the shared program differs from a lone one:\n%s", got)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
