package workload

import (
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
)

// hotBlock compiles b under the given model at issue 8 and returns the
// hottest superblock of the scheduled program plus the scheduling stats.
func hotBlock(t *testing.T, name string, model machine.Model) (*prog.Block, core.Stats) {
	t.Helper()
	b, ok := ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	p, m := b.Build()
	p.Layout()
	ref, err := prog.Run(p, m, prog.Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	f := superblock.Form(p, ref.Profile, superblock.Options{})
	f.Layout()
	sched, stats, err := core.Schedule(f, machine.Base(8, model))
	if err != nil {
		t.Fatal(err)
	}
	var hot *prog.Block
	for _, blk := range sched.Blocks {
		if blk.Superblock && (hot == nil || blk.WeightHint > hot.WeightHint) {
			hot = blk
		}
	}
	if hot == nil {
		t.Fatalf("%s: no superblock formed", name)
	}
	return hot, stats
}

func count(b *prog.Block, pred func(*ir.Instr) bool) int {
	n := 0
	for _, in := range b.Instrs {
		if pred(in) {
			n++
		}
	}
	return n
}

// TestKernelCharacter pins each kernel's scheduling-relevant structure to
// what DESIGN.md documents, so future edits cannot silently change the
// evaluation's meaning.
func TestKernelCharacter(t *testing.T) {
	isStore := func(in *ir.Instr) bool { return ir.BufferedStore(in.Op) }
	isBranch := func(in *ir.Instr) bool { return ir.IsBranch(in.Op) }
	isFP := func(in *ir.Instr) bool {
		return ir.UnitOf(in.Op) == ir.UnitFPALU || ir.UnitOf(in.Op) == ir.UnitFPMul || ir.UnitOf(in.Op) == ir.UnitFPDiv
	}
	isCheck := func(in *ir.Instr) bool { return in.Op == ir.Check }

	t.Run("wc has no hot stores", func(t *testing.T) {
		hot, _ := hotBlock(t, "wc", machine.SentinelStores)
		if n := count(hot, isStore); n != 0 {
			t.Errorf("wc hot loop has %d stores, want 0 (paper: no T gain)", n)
		}
	})
	t.Run("eqntott has no hot stores", func(t *testing.T) {
		hot, _ := hotBlock(t, "eqntott", machine.SentinelStores)
		if n := count(hot, isStore); n != 0 {
			t.Errorf("eqntott hot loop has %d stores, want 0", n)
		}
	})
	t.Run("grep inserts explicit sentinels", func(t *testing.T) {
		hot, stats := hotBlock(t, "grep", machine.Sentinel)
		if stats.Sentinels == 0 || count(hot, isCheck) == 0 {
			t.Errorf("grep must need check_exception sentinels (lookahead load is unprotected); stats=%+v", stats)
		}
	})
	t.Run("cmp speculates stores under T", func(t *testing.T) {
		_, stats := hotBlock(t, "cmp", machine.SentinelStores)
		if stats.Confirms == 0 {
			t.Errorf("cmp must speculate stores under sentinel+stores; stats=%+v", stats)
		}
	})
	t.Run("counted numeric loops lose interior tests", func(t *testing.T) {
		for _, name := range []string{"matrix300", "fpppp"} {
			hot, _ := hotBlock(t, name, machine.Restricted)
			if n := count(hot, isBranch); n != 1 {
				t.Errorf("%s hot loop has %d branches, want 1 (counted unrolling)", name, n)
			}
		}
	})
	t.Run("branchy kernels keep per-iteration branches", func(t *testing.T) {
		for _, name := range []string{"wc", "doduc", "tomcatv"} {
			hot, _ := hotBlock(t, name, machine.Sentinel)
			if n := count(hot, isBranch); n < 2 {
				t.Errorf("%s hot loop has only %d branches; its character is branchy", name, n)
			}
		}
	})
	t.Run("numeric kernels are FP-dominated", func(t *testing.T) {
		for _, name := range []string{"doduc", "fpppp", "matrix300", "nasa7", "tomcatv"} {
			hot, _ := hotBlock(t, name, machine.Sentinel)
			if n := count(hot, isFP); n == 0 {
				t.Errorf("%s hot loop has no FP arithmetic", name)
			}
		}
	})
	t.Run("non-numeric kernels have no FP", func(t *testing.T) {
		for _, b := range All() {
			if b.Numeric {
				continue
			}
			hot, _ := hotBlock(t, b.Name, machine.Sentinel)
			if n := count(hot, isFP); n != 0 {
				t.Errorf("%s (non-numeric) hot loop has %d FP instructions", b.Name, n)
			}
		}
	})
	t.Run("lex chains loads", func(t *testing.T) {
		// lex's DFA walk: a load whose address depends on another load's
		// value must appear in the hot loop (char -> class -> transition).
		hot, _ := hotBlock(t, "lex", machine.Sentinel)
		loads := count(hot, func(in *ir.Instr) bool { return ir.IsLoad(in.Op) })
		if loads < 3 {
			t.Errorf("lex hot loop has %d loads, want >= 3 (chained lookups)", loads)
		}
	})
	t.Run("tomcatv gains little from speculative stores", func(t *testing.T) {
		// The paper reports no T gain for tomcatv: its stores sit before the
		// convergence branch of their own iteration. Speculative stores may
		// move them across earlier unrolled iterations' branches, but the
		// cycle effect must stay small.
		cycles := func(model machine.Model) int64 {
			b, _ := ByName("tomcatv")
			md := machine.Base(8, model)
			sched, stats := compileFor(t, b, md)
			_ = stats
			_, m := b.Build()
			res, err := simRun(sched, md, m)
			if err != nil {
				t.Fatal(err)
			}
			return res.Cycles
		}
		s, tt := cycles(machine.Sentinel), cycles(machine.SentinelStores)
		if ratio := float64(s) / float64(tt); ratio > 1.12 {
			t.Errorf("tomcatv T gain %.1f%% too large (paper: none)", (ratio-1)*100)
		}
	})
}

// TestDeterministicBuilds: kernels must be bit-for-bit reproducible.
func TestDeterministicBuilds(t *testing.T) {
	for _, b := range All() {
		p1, m1 := b.Build()
		p2, m2 := b.Build()
		if p1.String() != p2.String() {
			t.Errorf("%s: program not deterministic", b.Name)
		}
		if m1.Checksum() != m2.Checksum() {
			t.Errorf("%s: memory image not deterministic", b.Name)
		}
	}
}

// TestProfilesAreStable: the scheduling decisions rest on the profile;
// pin the hot-block identity.
func TestProfilesAreStable(t *testing.T) {
	for _, b := range All() {
		p, m := b.Build()
		p.Layout()
		ref, err := prog.Run(p, m, prog.Options{Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		var hot string
		var max int64
		for i, c := range ref.Profile.Blocks {
			if c > max {
				hot, max = p.Blocks[i].Label, c
			}
		}
		// Every kernel's hottest block must be executed at least 100x more
		// often than the entry block: the evaluation measures loop code.
		if max < 100*ref.Profile.BlockCount(p.Entry) {
			t.Errorf("%s: hottest block %q only %dx entry", b.Name, hot, max)
		}
	}
}

// compileFor compiles a benchmark for a machine (helper for character
// tests).
func compileFor(t *testing.T, b Benchmark, md machine.Desc) (*prog.Program, core.Stats) {
	t.Helper()
	p, m := b.Build()
	p.Layout()
	ref, err := prog.Run(p, m, prog.Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	f := superblock.Form(p, ref.Profile, superblock.Options{})
	f.Layout()
	sched, stats, err := core.Schedule(f, md)
	if err != nil {
		t.Fatal(err)
	}
	return sched, stats
}

func simRun(p *prog.Program, md machine.Desc, m *mem.Memory) (*sim.Result, error) {
	return sim.Run(p, md, m, sim.Options{})
}
