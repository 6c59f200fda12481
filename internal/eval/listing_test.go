package eval

// The listing wall. Instruction text has one implementation,
// (*ir.Instr).AppendText, behind Instr.String, prog.Program.String and
// asm.FormatScheduled. The fmt-based formatter it replaced survives here as
// the oracle: every workload kernel and every checked-in differential-fuzz
// input must list byte-identically under every model and width, and
// FuzzInstrText compares single instructions built from arbitrary fields.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/ir"
	"sentinel/internal/prog"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

func oracleReg(r ir.Reg) string {
	if !r.Valid() {
		return "-"
	}
	if r.Class == ir.IntClass {
		return fmt.Sprintf("r%d", r.N)
	}
	return fmt.Sprintf("f%d", r.N)
}

func oracleInstr(i *ir.Instr) string {
	s := oracleFormat(i)
	if i.Spec {
		s += " <spec>"
	}
	return s
}

func oracleFormat(i *ir.Instr) string {
	dest, src1, src2 := oracleReg(i.Dest), oracleReg(i.Src1), oracleReg(i.Src2)
	switch {
	case i.Op == ir.Nop || i.Op == ir.Halt:
		return i.Op.String()
	case i.Op == ir.Li:
		return fmt.Sprintf("li %s, %d", dest, i.Imm)
	case i.Op == ir.Mov || i.Op == ir.Fmov || i.Op == ir.Fneg || i.Op == ir.Fabs ||
		i.Op == ir.Cvif || i.Op == ir.Cvfi:
		return fmt.Sprintf("%s %s, %s", i.Op, dest, src1)
	case ir.IsLoad(i.Op):
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, dest, i.Imm, src1)
	case ir.IsStore(i.Op):
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, src2, i.Imm, src1)
	case ir.IsBranch(i.Op):
		if i.Src2.Valid() {
			return fmt.Sprintf("%s %s, %s, %s", i.Op, src1, src2, i.Target)
		}
		return fmt.Sprintf("%s %s, %d, %s", i.Op, src1, i.Imm, i.Target)
	case i.Op == ir.Jmp:
		return fmt.Sprintf("jmp %s", i.Target)
	case i.Op == ir.Jsr:
		return fmt.Sprintf("jsr %s, %s", i.Target, src1)
	case i.Op == ir.Check:
		return fmt.Sprintf("check %s", src1)
	case i.Op == ir.ConfirmSt:
		return fmt.Sprintf("confirm_st %d", i.Imm)
	case i.Op == ir.ClearTag:
		return fmt.Sprintf("cleartag %s", dest)
	default:
		if i.Src2.Valid() {
			return fmt.Sprintf("%s %s, %s, %s", i.Op, dest, src1, src2)
		}
		return fmt.Sprintf("%s %s, %s, %d", i.Op, dest, src1, i.Imm)
	}
}

// oracleListing is asm.FormatScheduled as written with fmt.
func oracleListing(p *prog.Program) string {
	var sb strings.Builder
	for _, b := range p.Blocks {
		fmt.Fprintf(&sb, "%s:", b.Label)
		if b.Superblock {
			fmt.Fprintf(&sb, "  ; superblock, weight %d", b.WeightHint)
		}
		fmt.Fprintln(&sb)
		for _, in := range b.Instrs {
			if in.Cycle >= 0 {
				fmt.Fprintf(&sb, "  [%3d.%d] %s\n", in.Cycle, in.Slot, oracleInstr(in))
			} else {
				fmt.Fprintf(&sb, "          %s\n", oracleInstr(in))
			}
		}
	}
	return sb.String()
}

// oracleProgram is prog.Program.String as written with fmt.
func oracleProgram(p *prog.Program) string {
	var sb strings.Builder
	for _, b := range p.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Label)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "\t%s\n", oracleInstr(in))
		}
	}
	return sb.String()
}

// checkListings schedules the formed program f under the classic matrix at
// widths 2, 4 and 8 and compares every text rendering with the oracle.
func checkListings(t *testing.T, name string, f *prog.Program) {
	t.Helper()
	if got, want := f.String(), oracleProgram(f); got != want {
		t.Fatalf("%s: formed program text differs from the oracle:\n%s", name, firstDiff(got, want))
	}
	if got, want := asm.FormatScheduled(f), oracleListing(f); got != want {
		t.Fatalf("%s: unscheduled listing differs from the oracle:\n%s", name, firstDiff(got, want))
	}
	for _, width := range []int{2, 4, 8} {
		for _, md := range wallConfigs(width) {
			sched, _, err := core.Schedule(f, md)
			if err != nil {
				continue // a refusal has no listing; the wall records it
			}
			if got, want := asm.FormatScheduled(sched), oracleListing(sched); got != want {
				t.Fatalf("%s %v: listing differs from the oracle:\n%s", name, CellKey{MD: md}, firstDiff(got, want))
			}
		}
	}
}

// firstDiff reports the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

func TestListingMatchesOracleOnWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		p, m := w.Build()
		p.Layout()
		ref, err := prog.Run(p, m, prog.Options{Collect: true})
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		f := superblock.Form(p, ref.Profile, superblock.Options{})
		f.Layout()
		checkListings(t, w.Name, f)
	}
}

// TestListingMatchesOracleOnFuzzCorpus lists the programs generated from the
// checked-in FuzzScheduleDifferential corpus.
func TestListingMatchesOracleOnFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzScheduleDifferential")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	for _, e := range entries {
		data := readCorpusBytes(t, filepath.Join(dir, e.Name()))
		p, m := genProgram(data)
		if p == nil {
			t.Fatalf("%s: generator rejected the input", e.Name())
		}
		p.Layout()
		prof, _ := prog.Run(p, m.Clone(), prog.Options{Collect: true, MaxInstrs: 100_000})
		f := superblock.Form(p, prof.Profile, superblock.Options{})
		f.Layout()
		checkListings(t, e.Name(), f)
	}
}

// readCorpusBytes decodes a one-argument "go test fuzz v1" file holding a
// []byte value.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus file", path)
	}
	arg, ok := strings.CutPrefix(lines[1], "[]byte(")
	arg, ok2 := strings.CutSuffix(arg, ")")
	if !ok || !ok2 {
		t.Fatalf("%s: value is not a []byte", path)
	}
	s, err := strconv.Unquote(arg)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// textRegs are the operand shapes instruction text distinguishes: no
// register, the zero register, and registers of both classes with one- and
// two-digit numbers up to the end of each file.
var textRegs = []ir.Reg{ir.NoReg, ir.R(0), ir.R(7), ir.R(63), ir.F(0), ir.F(12),
	ir.F(63), ir.R(30)}

// TestInstrTextMatchesOracle covers every opcode, plus two past the end,
// with each operand shape in every position.
func TestInstrTextMatchesOracle(t *testing.T) {
	for op := ir.Op(0); int(op) < ir.NumOps+2; op++ {
		for k, r := range textRegs {
			for _, imm := range []int64{0, -1, 4096, -1 << 63} {
				in := ir.New(op)
				in.Dest, in.Src1 = r, textRegs[(k+3)%len(textRegs)]
				in.Src2 = textRegs[(k+5)%len(textRegs)]
				in.Imm, in.Target, in.Spec = imm, "loop.x1", k%2 == 0
				checkInstrText(t, in)
			}
		}
	}
}

func checkInstrText(t *testing.T, in *ir.Instr) {
	t.Helper()
	want := oracleInstr(in)
	if got := in.String(); got != want {
		t.Fatalf("String() = %q, oracle %q", got, want)
	}
	if got := string(in.AppendText([]byte("x:"))); got != "x:"+want {
		t.Fatalf("AppendText after a prefix = %q, oracle %q", got, "x:"+want)
	}
	for _, r := range []ir.Reg{in.Dest, in.Src1, in.Src2} {
		if got, want := r.String(), oracleReg(r); got != want {
			t.Fatalf("Reg.String() = %q, oracle %q", got, want)
		}
	}
}

// fuzzReg builds a register from a fuzzed shape selector and number,
// folding the number into the selected file.
func fuzzReg(kind uint8, n int16) ir.Reg {
	switch kind % 3 {
	case 1:
		return ir.R(int(uint16(n)) % ir.NumIntRegs)
	case 2:
		return ir.F(int(uint16(n)) % ir.NumFPRegs)
	}
	return ir.NoReg
}

// FuzzInstrText checks AppendText against the fmt oracle on instructions
// with an arbitrary opcode (including out-of-range ones), registers,
// immediate, target and speculative modifier.
func FuzzInstrText(f *testing.F) {
	f.Add(uint8(ir.Ld), uint8(1), int16(5), uint8(1), int16(2), uint8(0), int16(0), int64(-8), "", false)
	f.Add(uint8(ir.Fst), uint8(0), int16(0), uint8(1), int16(30), uint8(2), int16(3), int64(16), "", true)
	f.Add(uint8(ir.Bne), uint8(0), int16(0), uint8(3), int16(9), uint8(0), int16(0), int64(7), "exit.dup", true)
	f.Add(uint8(ir.Add), uint8(4), int16(-1), uint8(1), int16(0), uint8(2), int16(63), int64(1), "", false)
	f.Add(uint8(ir.NumOps+9), uint8(1), int16(1), uint8(1), int16(1), uint8(1), int16(1), int64(0), "x", true)
	f.Fuzz(func(t *testing.T, op, dk uint8, dn int16, s1k uint8, s1n int16, s2k uint8, s2n int16, imm int64, target string, spec bool) {
		in := ir.New(ir.Op(op))
		in.Dest, in.Src1, in.Src2 = fuzzReg(dk, dn), fuzzReg(s1k, s1n), fuzzReg(s2k, s2n)
		in.Imm, in.Target, in.Spec = imm, target, spec
		checkInstrText(t, in)
	})
}
