package main

import (
	"testing"

	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
	"sentinel/internal/superblock"
)

// Every generated program assembles, validates, and halts in the reference
// interpreter without trapping.
func TestGeneratedProgramsHalt(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		for idx := uint64(0); idx < 100; idx++ {
			src := genProgram(seed, idx)
			p, m, err := asm.Parse(src)
			if err != nil {
				t.Fatalf("seed %d idx %d: %v", seed, idx, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d idx %d: %v", seed, idx, err)
			}
			p.Layout()
			res, err := prog.Run(p, m, prog.Options{})
			if err != nil {
				t.Fatalf("seed %d idx %d: %v", seed, idx, err)
			}
			if len(res.Out) != 3 {
				t.Fatalf("seed %d idx %d: out %v, want 3 values", seed, idx, res.Out)
			}
		}
	}
}

func TestGeneratorSeeded(t *testing.T) {
	if genProgram(1, 5) != genProgram(1, 5) {
		t.Fatal("same (seed, idx) gave different programs")
	}
	if genProgram(1, 5) == genProgram(2, 5) || genProgram(1, 5) == genProgram(1, 6) {
		t.Fatal("different (seed, idx) gave the same program")
	}
}

// Every generated program compiles under every model and width: the
// compile workload's ops must not fail on a correct commit.
func TestGeneratedProgramsSchedule(t *testing.T) {
	for idx := uint64(0); idx < 60; idx++ {
		src := genProgram(3, idx)
		for _, model := range models {
			for _, width := range widths {
				if err := compileSource(src, model, width); err != nil {
					t.Fatalf("idx %d %s/%d: %v", idx, model, width, err)
				}
			}
		}
	}
}

// compileSource runs the server's inline-source pipeline on src.
func compileSource(src, model string, width int) error {
	p, m, err := asm.Parse(src)
	if err != nil {
		return err
	}
	p.Layout()
	ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
	if err != nil {
		return err
	}
	q := superblock.Form(p, ref.Profile, superblock.Options{})
	q.Layout()
	md, err := machine.Resolve(model, width, "")
	if err != nil {
		return err
	}
	_, _, err = core.Schedule(q, md)
	return err
}
