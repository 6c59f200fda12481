package core

import (
	"sentinel/internal/dataflow"
	"sentinel/internal/ir"
	"sentinel/internal/prog"
)

// splitSelfModifying applies the renaming transformation of §3.7 to a
// superblock: every instruction that overwrites one of its own source
// registers (e.g. r2 = r2+1) is split into an operation writing a fresh
// register plus a move that updates the original register at the end of the
// instruction's home block:
//
//	E: r2 = r2+1   =>   E': r10 = r2+1 ... I: r2 = r10
//
// Uses of r2 between E and the move are renamed to r10. Such instructions
// would otherwise break restartable sequences (§3.7 restriction 3): after a
// partial execution their input is destroyed, so the sequence could not be
// re-executed. The move is an ordinary instruction; the scheduler's dynamic
// region tracking keeps it after the sentinels of any speculative
// instructions that moved beyond the original position (restriction 4).
//
// It returns the number of instructions split.
func splitSelfModifying(p *prog.Program, b *prog.Block) int {
	used := dataflow.UsedRegs(p)
	split := 0
	for i := 0; i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		if !in.SelfModifying() {
			continue
		}
		d, _ := in.Def()
		tmp, ok := used.AllocFree(d.Class)
		if !ok {
			continue // no free register: the scheduler's deferral still protects
		}

		in.Dest = tmp
		end := homeEndIndex(b, i)
		movePos := end
		needMove := true
		for j := i + 1; j < end; j++ {
			renameUses(b.Instrs[j], d, tmp)
			if dj, ok := b.Instrs[j].Def(); ok && dj == d {
				// d is redefined before the home block ends: the split value
				// dies here and no move is needed.
				needMove = false
				break
			}
		}
		if needMove {
			var mv *ir.Instr
			if d.Class == ir.IntClass {
				mv = ir.MOV(d, tmp)
			} else {
				mv = ir.FMOV(d, tmp)
			}
			rest := make([]*ir.Instr, 0, len(b.Instrs)+1)
			rest = append(rest, b.Instrs[:movePos]...)
			rest = append(rest, mv)
			rest = append(rest, b.Instrs[movePos:]...)
			b.Instrs = rest
		}
		split++
	}
	return split
}

// homeEndIndex returns the index of the first control instruction after i,
// or len(instrs).
func homeEndIndex(b *prog.Block, i int) int {
	for j := i + 1; j < len(b.Instrs); j++ {
		if ir.IsControl(b.Instrs[j].Op) {
			return j
		}
	}
	return len(b.Instrs)
}

func renameUses(in *ir.Instr, from, to ir.Reg) {
	if in.Src1 == from {
		in.Src1 = to
	}
	if in.Src2 == from {
		in.Src2 = to
	}
}
