package superblock

import (
	"strings"
	"testing"

	"sentinel/internal/asm"
	"sentinel/internal/ir"
	"sentinel/internal/prog"
)

// joinLoopSrc is a loop whose cold path falls into a join block: the hot
// trace is loop -> head -> join, so join is absorbed into the superblock and
// the empty cold block, which falls into it, must be routed to join's
// duplicate. The unrolled body renames the pointer r1, so every side exit to
// cold (which reaches loop again, reading r1) owes a compensation move.
const joinLoopSrc = `
.seg in 4096 64
.word 4104 500
.word 4112 500
.word 4120 500
.word 4128 500
.word 4136 500
.word 4144 500
entry:
	li r1, 4096
	li r2, 4160
	li r6, 150
loop:
	bge r1, r2, done
head:
	ld r10, 0(r1)
	add r1, r1, 8
	blt r10, r6, cold
	jmp join
cold:
join:
	jmp loop
done:
	halt
`

// TestColdPathIntoJoinRestoresInduction is the regression test for side
// exits whose target falls into an absorbed join block: liveness must see
// the cold block's real successor, so the exits restore the renamed
// induction register, and the formed program halts with the reference
// results instead of re-entering the loop with a stale pointer.
func TestColdPathIntoJoinRestoresInduction(t *testing.T) {
	p, m, err := asm.Parse(joinLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	p.Layout()
	ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	f := Form(p, ref.Profile, Options{})
	if err := f.Validate(); err != nil {
		t.Fatalf("formed program invalid: %v\n%s", err, asm.Format(f))
	}
	f.Layout()
	// A generous bound: the defect re-entered the loop forever.
	got, err := prog.Run(f, m.Clone(), prog.Options{MaxInstrs: 100 * ref.Instrs})
	if err != nil {
		t.Fatalf("formed run: %v\n%s", err, asm.Format(f))
	}
	if got.MemSum != ref.MemSum || len(got.Out) != len(ref.Out) {
		t.Fatalf("formed run: mem_sum %#x out %v, want %#x %v", got.MemSum, got.Out, ref.MemSum, ref.Out)
	}

	// Compensation goes only where the renamed register is live: every exit
	// to cold restores r1 through a stub; exits to done (which reads no
	// register) stay direct.
	main := f.Block("loop")
	if main == nil || !main.Superblock {
		t.Fatalf("loop was not formed into a superblock:\n%s", asm.Format(f))
	}
	toStub, toDone := 0, 0
	for _, in := range main.Instrs {
		if !ir.IsBranch(in.Op) {
			continue
		}
		switch {
		case in.Target == "done":
			toDone++
		case strings.HasPrefix(in.Target, "loop.x"):
			toStub++
			stub := f.Block(in.Target)
			if mov := stub.Instrs[0]; mov.Op != ir.Mov || mov.Dest != ir.R(1) {
				t.Errorf("stub %s does not restore r1: %v", in.Target, stub.Instrs)
			}
		default:
			t.Errorf("side exit %v bypasses compensation", in)
		}
	}
	if toStub == 0 || toDone == 0 {
		t.Errorf("want exits to both cold stubs and done, got %d and %d:\n%s", toStub, toDone, asm.Format(f))
	}
}
