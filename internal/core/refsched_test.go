package core

import (
	"fmt"
	"testing"

	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// progsEqual compares two scheduled programs instruction by instruction,
// including the schedule coordinates, and reports the first difference.
func progsEqual(a, b *prog.Program) error {
	if len(a.Blocks) != len(b.Blocks) {
		return fmt.Errorf("block count %d != %d", len(a.Blocks), len(b.Blocks))
	}
	for bi, ba := range a.Blocks {
		bb := b.Blocks[bi]
		if ba.Label != bb.Label {
			return fmt.Errorf("block %d label %q != %q", bi, ba.Label, bb.Label)
		}
		if len(ba.Instrs) != len(bb.Instrs) {
			return fmt.Errorf("block %q: %d instrs != %d", ba.Label, len(ba.Instrs), len(bb.Instrs))
		}
		for i, ia := range ba.Instrs {
			ib := bb.Instrs[i]
			if ia.Op != ib.Op || ia.Dest != ib.Dest || ia.Src1 != ib.Src1 ||
				ia.Src2 != ib.Src2 || ia.Imm != ib.Imm || ia.Target != ib.Target ||
				ia.Spec != ib.Spec || ia.BoostLevel != ib.BoostLevel ||
				ia.Cycle != ib.Cycle || ia.Slot != ib.Slot || ia.PC != ib.PC {
				return fmt.Errorf("block %q instr %d: %v (cycle %d slot %d pc %d spec %v boost %d) != %v (cycle %d slot %d pc %d spec %v boost %d)",
					ba.Label, i,
					ia, ia.Cycle, ia.Slot, ia.PC, ia.Spec, ia.BoostLevel,
					ib, ib.Cycle, ib.Slot, ib.PC, ib.Spec, ib.BoostLevel)
			}
		}
	}
	return nil
}

// schedulerModels covers every speculation model plus the recovery and
// ablation variants the experiments exercise.
func schedulerModels(width int) []machine.Desc {
	return []machine.Desc{
		machine.Base(width, machine.Restricted),
		machine.Base(width, machine.General),
		machine.Base(width, machine.Sentinel),
		machine.Base(width, machine.SentinelStores),
		machine.Base(width, machine.Boosting),
		machine.Base(width, machine.Sentinel).WithRecovery(),
		machine.Base(width, machine.SentinelStores).WithRecovery(),
		func() machine.Desc {
			d := machine.Base(width, machine.Sentinel)
			d.NoSharedSentinels = true
			return d
		}(),
	}
}

// TestSchedulerMatchesReference is the determinism property test for the
// heap-based scheduler: on every workload kernel, under every model and two
// issue widths, Schedule must emit a program byte-identical (opcode, operand,
// cycle, slot, PC) to the seed scheduler preserved in refsched.go.
func TestSchedulerMatchesReference(t *testing.T) {
	for _, k := range formKernels(t) {
		f := k.f
		for _, width := range []int{2, 8} {
			for _, md := range schedulerModels(width) {
				got, gotStats, err1 := Schedule(f, md)
				want, wantStats, err2 := ScheduleReference(f, md)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s %v w%d: error mismatch: %v vs %v", k.name, md.Model, width, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if gotStats != wantStats {
					t.Errorf("%s %v w%d recovery=%v: stats %+v != reference %+v",
						k.name, md.Model, width, md.Recovery, gotStats, wantStats)
				}
				if err := progsEqual(got, want); err != nil {
					t.Errorf("%s %v w%d recovery=%v: %v", k.name, md.Model, width, md.Recovery, err)
				}
			}
		}
	}
}

// (Every register the scheduler sees indexes its file: ir.R and ir.F refuse
// any other number — TestRegConstructorsRange in internal/ir — and the
// assembler rejects any other name as a bad register.)
