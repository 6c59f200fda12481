// Package ir defines MIR, the machine-level intermediate representation used
// throughout the sentinel-scheduling reproduction. MIR is a RISC assembly
// language in the spirit of the MIPS R2000 instruction set, matching the
// machine model of Mahlke et al. (ASPLOS 1992): 64 integer registers, 64
// floating-point registers, deterministic instruction latencies, and a set of
// potentially trapping opcodes (memory loads, memory stores, integer divide,
// and all floating-point instructions).
package ir

import (
	"fmt"
	"strconv"
)

// RegClass distinguishes the two architectural register files.
type RegClass uint8

const (
	// IntClass is the integer register file (r0..r63, r0 hardwired to zero).
	IntClass RegClass = iota
	// FPClass is the floating-point register file (f0..f63).
	FPClass
)

// NumIntRegs and NumFPRegs are the architectural register file sizes.
const (
	NumIntRegs = 64
	NumFPRegs  = 64
)

// Reg names one architectural register: N is in [0,NumIntRegs) for the
// integer file or [0,NumFPRegs) for the floating-point file. R and F are
// the only constructors of a valid Reg and refuse any other number, so a
// valid Reg always indexes its file.
type Reg struct {
	Class RegClass
	N     int16
	valid bool
}

// NoReg is the zero Reg and means "no operand".
var NoReg = Reg{}

// R returns integer register n. It panics unless 0 <= n < NumIntRegs.
func R(n int) Reg {
	if uint(n) >= NumIntRegs {
		badReg("r", n)
	}
	return Reg{Class: IntClass, N: int16(n), valid: true}
}

// F returns floating-point register n. It panics unless 0 <= n < NumFPRegs.
func F(n int) Reg {
	if uint(n) >= NumFPRegs {
		badReg("f", n)
	}
	return Reg{Class: FPClass, N: int16(n), valid: true}
}

// badReg is kept out of line so R and F stay inlinable.
//
//go:noinline
func badReg(file string, n int) {
	panic("ir: register " + file + strconv.Itoa(n) + " out of range")
}

// Valid reports whether r names a register (as opposed to NoReg).
func (r Reg) Valid() bool { return r.valid }

// IsZero reports whether r is the hardwired-zero integer register r0.
func (r Reg) IsZero() bool { return r.valid && r.Class == IntClass && r.N == 0 }

func (r Reg) String() string { return string(r.AppendText(nil)) }

// AppendText appends r's assembly name (r3, f7, or "-" for NoReg) to dst
// and returns the extended buffer.
func (r Reg) AppendText(dst []byte) []byte {
	switch {
	case !r.valid:
		return append(dst, '-')
	case r.Class == IntClass:
		dst = append(dst, 'r')
	default:
		dst = append(dst, 'f')
	}
	return strconv.AppendInt(dst, int64(r.N), 10)
}

// Index returns a dense index: integer registers map to [0,NumIntRegs) and
// floating-point registers to [NumIntRegs, NumIntRegs+NumFPRegs). It panics
// on NoReg.
func (r Reg) Index() int {
	if !r.valid {
		panic("ir: Index of invalid register")
	}
	if r.Class == IntClass {
		return int(r.N)
	}
	return NumIntRegs + int(r.N)
}

// Op enumerates the MIR opcodes.
type Op uint8

const (
	// Nop does nothing.
	Nop Op = iota

	// Integer ALU, latency 1. Two-source forms use Src2 when valid,
	// otherwise the Imm field supplies the second operand.
	Add
	Sub
	Mul // integer multiply, latency 3
	Div // integer divide, latency 10, traps on divide by zero
	Rem // integer remainder, latency 10, traps on divide by zero
	And
	Or
	Xor
	Shl
	Shr
	Slt // set less than (signed): dest = (src1 < src2) ? 1 : 0
	Li  // load immediate: dest = Imm
	Mov // register move: dest = src1

	// Memory operations. Effective address is Src1 + Imm.
	Ld  // load 64-bit word, latency 2, traps
	Ldb // load byte (zero-extended), latency 2, traps
	Fld // load 64-bit float, latency 2, traps
	St  // store 64-bit word from Src2, latency 1, traps
	Stb // store byte from Src2, latency 1, traps
	Fst // store 64-bit float from Src2, latency 1, traps

	// Floating point. All FP instructions are potentially trapping.
	Fadd // latency 3
	Fsub // latency 3
	Fmul // latency 3
	Fdiv // latency 10
	Fmov // latency 3 (FP ALU class)
	Fneg // latency 3
	Fabs // latency 3
	Cvif // convert integer src1 to float dest, latency 3
	Cvfi // convert float src1 to integer dest, latency 3
	Feq  // FP compare to integer dest: dest = (src1 == src2), latency 3
	Flt  // dest = (src1 < src2), latency 3
	Fle  // dest = (src1 <= src2), latency 3

	// Control. Conditional branches compare Src1 against Src2 (or Imm when
	// Src2 is invalid) and transfer to Target when the condition holds.
	Beq
	Bne
	Blt  // signed less-than
	Bge  // signed greater-or-equal
	Jmp  // unconditional jump to Target
	Jsr  // call a runtime routine named by Target; irreversible
	Halt // stop the program

	// Sentinel-scheduling architectural support.
	Check     // check_exception(src1): explicit sentinel, no computation
	ConfirmSt // confirm_store(Imm): confirm the probationary store Imm entries from the store-buffer tail
	ClearTag  // reset the exception tag of Dest (for uninitialized registers, §3.5)
	SaveTR    // store Src2's data AND exception tag to mem[Src1+Imm] without signalling (§3.2)
	RestTR    // load data AND exception tag from mem[Src1+Imm] into Dest without signalling (§3.2)

	numOps // sentinel for table sizing; keep last
)

// NumOps is the number of MIR opcodes, for sizing per-opcode tables (e.g.
// the simulator's dynamic opcode-mix counters).
const NumOps = int(numOps)

var opNames = [numOps]string{
	Nop: "nop", Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr", Slt: "slt",
	Li: "li", Mov: "mov",
	Ld: "ld", Ldb: "ldb", Fld: "fld", St: "st", Stb: "stb", Fst: "fst",
	Fadd: "fadd", Fsub: "fsub", Fmul: "fmul", Fdiv: "fdiv", Fmov: "fmov",
	Fneg: "fneg", Fabs: "fabs", Cvif: "cvif", Cvfi: "cvfi",
	Feq: "feq", Flt: "flt", Fle: "fle",
	Beq: "beq", Bne: "bne", Blt: "blt", Bge: "bge", Jmp: "jmp", Jsr: "jsr",
	Halt:  "halt",
	Check: "check", ConfirmSt: "confirm_st", ClearTag: "cleartag",
	SaveTR: "savetr", RestTR: "resttr",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Unit is the function-unit class of an opcode, which determines its latency
// per Table 3 of the paper.
type Unit uint8

const (
	UnitIntALU Unit = iota
	UnitIntMul
	UnitIntDiv
	UnitBranch
	UnitLoad
	UnitStore
	UnitFPALU
	UnitFPConv
	UnitFPMul
	UnitFPDiv
	NumUnits
)

var unitNames = [NumUnits]string{
	UnitIntALU: "Int ALU", UnitIntMul: "Int multiply", UnitIntDiv: "Int divide",
	UnitBranch: "branch", UnitLoad: "memory load", UnitStore: "memory store",
	UnitFPALU: "FP ALU", UnitFPConv: "FP conversion", UnitFPMul: "FP multiply",
	UnitFPDiv: "FP divide",
}

func (u Unit) String() string { return unitNames[u] }

var opUnit = [numOps]Unit{
	Nop: UnitIntALU, Add: UnitIntALU, Sub: UnitIntALU, Mul: UnitIntMul,
	Div: UnitIntDiv, Rem: UnitIntDiv,
	And: UnitIntALU, Or: UnitIntALU, Xor: UnitIntALU, Shl: UnitIntALU,
	Shr: UnitIntALU, Slt: UnitIntALU, Li: UnitIntALU, Mov: UnitIntALU,
	Ld: UnitLoad, Ldb: UnitLoad, Fld: UnitLoad,
	St: UnitStore, Stb: UnitStore, Fst: UnitStore,
	Fadd: UnitFPALU, Fsub: UnitFPALU, Fmul: UnitFPMul, Fdiv: UnitFPDiv,
	Fmov: UnitFPALU, Fneg: UnitFPALU, Fabs: UnitFPALU,
	Cvif: UnitFPConv, Cvfi: UnitFPConv,
	Feq: UnitFPALU, Flt: UnitFPALU, Fle: UnitFPALU,
	Beq: UnitBranch, Bne: UnitBranch, Blt: UnitBranch, Bge: UnitBranch,
	Jmp: UnitBranch, Jsr: UnitBranch, Halt: UnitBranch,
	Check: UnitIntALU, ConfirmSt: UnitStore, ClearTag: UnitIntALU,
	SaveTR: UnitStore, RestTR: UnitLoad,
}

// UnitOf returns op's function-unit class.
func UnitOf(op Op) Unit { return opUnit[op] }

// Traps reports whether op is a potentially trap-causing instruction. Per the
// paper's machine model these are memory loads, memory stores, integer
// divide, and all floating-point instructions. SaveTR/RestTR access memory
// and may fault; Check and ConfirmSt signal exceptions on behalf of other
// instructions but do not themselves trap.
func Traps(op Op) bool {
	switch op {
	case Ld, Ldb, Fld, St, Stb, Fst, Div, Rem,
		Fadd, Fsub, Fmul, Fdiv, Fmov, Fneg, Fabs, Cvif, Cvfi, Feq, Flt, Fle,
		SaveTR, RestTR:
		return true
	}
	return false
}

// IsBranch reports whether op is a conditional branch.
func IsBranch(op Op) bool {
	switch op {
	case Beq, Bne, Blt, Bge:
		return true
	}
	return false
}

// IsControl reports whether op transfers or may transfer control (branches,
// jumps, calls, halt). Control instructions delimit home blocks inside a
// superblock and may never be executed speculatively.
func IsControl(op Op) bool {
	switch op {
	case Beq, Bne, Blt, Bge, Jmp, Jsr, Halt:
		return true
	}
	return false
}

// IsStore reports whether op writes memory.
func IsStore(op Op) bool {
	switch op {
	case St, Stb, Fst, SaveTR:
		return true
	}
	return false
}

// IsLoad reports whether op reads memory.
func IsLoad(op Op) bool {
	switch op {
	case Ld, Ldb, Fld, RestTR:
		return true
	}
	return false
}

// IsMem reports whether op accesses memory.
func IsMem(op Op) bool { return IsStore(op) || IsLoad(op) }

// BufferedStore reports whether op inserts an entry into the store buffer.
// SaveTR bypasses the buffer (the buffer is drained first), so it does not
// count toward confirm_store indices or the §4.2 separation constraint.
func BufferedStore(op Op) bool {
	switch op {
	case St, Stb, Fst:
		return true
	}
	return false
}

// Irreversible reports whether op has side effects that cannot be undone by
// re-execution (§3.7): I/O, subroutine call and synchronization. In MIR the
// only such opcode is Jsr (runtime calls perform I/O). Under the paper's
// weak-ordering memory model, stores are NOT irreversible.
func Irreversible(op Op) bool { return op == Jsr }

// MemSize returns the access width in bytes of a memory opcode (0 for
// non-memory opcodes).
func MemSize(op Op) int {
	switch op {
	case Ld, Fld, St, Fst, SaveTR, RestTR:
		return 8
	case Ldb, Stb:
		return 1
	}
	return 0
}

// ExcKind identifies the kind of a program exception.
type ExcKind uint8

const (
	ExcNone ExcKind = iota
	ExcPageFault
	ExcAccessViolation
	ExcDivZero
	ExcFPInvalid
	ExcFPOverflow
)

var excNames = [...]string{
	ExcNone: "none", ExcPageFault: "page fault",
	ExcAccessViolation: "access violation", ExcDivZero: "divide by zero",
	ExcFPInvalid: "fp invalid", ExcFPOverflow: "fp overflow",
}

func (k ExcKind) String() string {
	if int(k) < len(excNames) {
		return excNames[k]
	}
	return fmt.Sprintf("exc(%d)", int(k))
}

// Instr is one MIR instruction. Instructions are mutated by the scheduler
// (Spec modifier, Cycle/Slot assignment) and are therefore handled by
// pointer once they belong to a program; the compile path builds them as
// values and copies them into the slab of the block they fill
// (prog.Slab). A copy is a plain assignment: Instr holds no reference
// fields other than strings, which are immutable.
type Instr struct {
	Op     Op
	Dest   Reg
	Src1   Reg
	Src2   Reg
	Imm    int64  // immediate operand / memory offset / confirm_store index
	Target string // branch target label, or Jsr runtime routine name
	// TargetIndex is the position of a branch's or jump's Target block in
	// its program, resolved when the program is laid out
	// (prog.Program.Layout); -1 before that or when no block has the label.
	TargetIndex int32

	// Spec is the speculative modifier: set by the scheduler on every
	// instruction moved above one or more branches (§3.2).
	Spec bool

	// BoostLevel is the number of branches this instruction was boosted
	// above under the instruction-boosting model (§2.3); 0 otherwise. Its
	// result lives in shadow register file / shadow store buffer level
	// BoostLevel until those branches commit.
	BoostLevel int

	// Scheduling results. Cycle is the issue cycle relative to the start of
	// the instruction's (super)block, Slot the position within the issue
	// group; both are -1 before scheduling.
	Cycle int
	Slot  int

	// PC is a globally unique instruction address assigned when a program is
	// laid out; the simulator reports exception PCs in terms of it.
	PC int
}

// Make returns an unscheduled instruction with the given opcode, by value.
func Make(op Op) Instr { return Instr{Op: op, TargetIndex: -1, Cycle: -1, Slot: -1, PC: -1} }

// New returns a new unscheduled instruction with the given opcode.
func New(op Op) *Instr {
	i := Make(op)
	return &i
}

// Uses returns the source registers read by i, excluding invalid operands
// and the hardwired-zero register (which is not a real dependence).
func (i *Instr) Uses() []Reg {
	var u []Reg
	if i.Src1.Valid() && !i.Src1.IsZero() {
		u = append(u, i.Src1)
	}
	if i.Src2.Valid() && !i.Src2.IsZero() {
		u = append(u, i.Src2)
	}
	return u
}

// Uses2 is an allocation-free Uses: it returns i's source registers in the
// same order, with NoReg filling unused positions. Callers must skip
// positions for which Valid() is false.
func (i *Instr) Uses2() (a, b Reg) {
	if i.Src1.Valid() && !i.Src1.IsZero() {
		a = i.Src1
	}
	if i.Src2.Valid() && !i.Src2.IsZero() {
		b = i.Src2
	}
	return a, b
}

// Def returns the register written by i and whether there is one. Writes to
// the hardwired-zero register are discarded and reported as no definition.
func (i *Instr) Def() (Reg, bool) {
	if i.Dest.Valid() && !i.Dest.IsZero() {
		return i.Dest, true
	}
	return NoReg, false
}

// SelfModifying reports whether i overwrites one of its own source registers
// (e.g. r2 = r2+1). Such instructions break restartable sequences (§3.7
// restriction 3) unless the scheduler's renaming transformation splits them.
func (i *Instr) SelfModifying() bool {
	d, ok := i.Def()
	if !ok {
		return false
	}
	u1, u2 := i.Uses2()
	return u1 == d || u2 == d
}

func (i *Instr) String() string { return string(i.AppendText(nil)) }

// AppendText appends i's assembly text — the syntax asm.ParseInstr reads,
// with " <spec>" after a speculative instruction — to dst and returns the
// extended buffer. It is the one implementation of instruction text: String,
// program listings and scheduled listings all go through it.
func (i *Instr) AppendText(dst []byte) []byte {
	op := i.Op
	switch {
	case op == Nop || op == Halt:
		dst = append(dst, op.String()...)
	case op == Li:
		dst = append(dst, "li "...)
		dst = i.Dest.AppendText(dst)
		dst = append(dst, ", "...)
		dst = strconv.AppendInt(dst, i.Imm, 10)
	case op == Mov || op == Fmov || op == Fneg || op == Fabs || op == Cvif || op == Cvfi:
		dst = appendOp(dst, op)
		dst = i.Dest.AppendText(dst)
		dst = append(dst, ", "...)
		dst = i.Src1.AppendText(dst)
	case IsLoad(op):
		dst = appendOp(dst, op)
		dst = i.Dest.AppendText(dst)
		dst = appendMemOperand(dst, i.Imm, i.Src1)
	case IsStore(op):
		dst = appendOp(dst, op)
		dst = i.Src2.AppendText(dst)
		dst = appendMemOperand(dst, i.Imm, i.Src1)
	case IsBranch(op):
		dst = appendOp(dst, op)
		dst = i.Src1.AppendText(dst)
		dst = i.appendSecond(dst)
		dst = append(dst, ", "...)
		dst = append(dst, i.Target...)
	case op == Jmp:
		dst = append(dst, "jmp "...)
		dst = append(dst, i.Target...)
	case op == Jsr:
		dst = append(dst, "jsr "...)
		dst = append(dst, i.Target...)
		dst = append(dst, ", "...)
		dst = i.Src1.AppendText(dst)
	case op == Check:
		dst = append(dst, "check "...)
		dst = i.Src1.AppendText(dst)
	case op == ConfirmSt:
		dst = append(dst, "confirm_st "...)
		dst = strconv.AppendInt(dst, i.Imm, 10)
	case op == ClearTag:
		dst = append(dst, "cleartag "...)
		dst = i.Dest.AppendText(dst)
	default:
		dst = appendOp(dst, op)
		dst = i.Dest.AppendText(dst)
		dst = append(dst, ", "...)
		dst = i.Src1.AppendText(dst)
		dst = i.appendSecond(dst)
	}
	if i.Spec {
		dst = append(dst, " <spec>"...)
	}
	return dst
}

// appendOp appends op's mnemonic and the space before its first operand.
func appendOp(dst []byte, op Op) []byte {
	return append(append(dst, op.String()...), ' ')
}

// appendMemOperand appends ", off(base)".
func appendMemOperand(dst []byte, off int64, base Reg) []byte {
	dst = append(dst, ", "...)
	dst = strconv.AppendInt(dst, off, 10)
	dst = append(dst, '(')
	dst = base.AppendText(dst)
	return append(dst, ')')
}

// appendSecond appends ", " and the second source: Src2 when valid,
// otherwise the immediate.
func (i *Instr) appendSecond(dst []byte) []byte {
	dst = append(dst, ", "...)
	if i.Src2.Valid() {
		return i.Src2.AppendText(dst)
	}
	return strconv.AppendInt(dst, i.Imm, 10)
}
