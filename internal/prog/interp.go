package prog

import (
	"fmt"
	"math"
	"slices"

	"sentinel/internal/ir"
	"sentinel/internal/mem"
)

// Env is the architectural state of the reference machine: 64 integer and 64
// floating-point registers, data memory, and the output stream produced by
// runtime calls. The reference interpreter has no exception tags; it is a
// precise sequential machine.
type Env struct {
	Int [ir.NumIntRegs]int64
	FP  [ir.NumFPRegs]float64
	Mem *mem.Memory
	Out []int64
}

// Get reads a register as raw data.
func (e *Env) Get(r ir.Reg) int64 {
	if r.Class == ir.IntClass {
		return e.Int[r.N]
	}
	return int64(math.Float64bits(e.FP[r.N]))
}

// GetFP reads a floating-point register.
func (e *Env) GetFP(r ir.Reg) float64 { return e.FP[r.N] }

// Set writes an integer register (writes to r0 are discarded).
func (e *Env) Set(r ir.Reg, v int64) {
	if r.Class == ir.IntClass {
		if r.N != 0 {
			e.Int[r.N] = v
		}
		return
	}
	e.FP[r.N] = math.Float64frombits(uint64(v))
}

// SetFP writes a floating-point register.
func (e *Env) SetFP(r ir.Reg, v float64) { e.FP[r.N] = v }

// ExcInfo describes a signalled exception of the reference machine.
type ExcInfo struct {
	PC   int
	Kind ir.ExcKind
	Addr int64 // faulting address for memory exceptions
}

func (x *ExcInfo) Error() string {
	return fmt.Sprintf("exception %v at pc %d (addr %#x)", x.Kind, x.PC, x.Addr)
}

// FaultHandler decides what happens on an exception. Returning true retries
// the excepting instruction (after the handler presumably repaired the
// cause, e.g. mapped a page in); returning false aborts execution with the
// exception as the error.
type FaultHandler func(exc ExcInfo, env *Env) bool

// Profile is the dynamic execution profile used by superblock formation,
// counted by position in the laid-out program it was taken of. It records
// that program's shape as well as its counts, so it stays valid when the
// program is edited or formed afterwards.
type Profile struct {
	// Blocks[i] counts the executions of block i.
	Blocks []int64
	// Taken[pc] counts the times the branch or jump at pc transferred
	// control to its target.
	Taken []int64
	// Fall[i] counts the times block i fell through to block i+1.
	Fall []int64
	// Start[i] is the PC of block i's first instruction and
	// Start[len(Blocks)] the number of PCs; Target[pc] is the position of
	// the block the branch or jump at pc targets, -1 for other
	// instructions.
	Start, Target []int32
	// Labels[i] is block i's label, for the label accessors.
	Labels []string
}

// newProfile returns a zeroed profile of the laid-out p.
func newProfile(p *Program) *Profile {
	nb, npc := len(p.Blocks), 0
	for _, b := range p.Blocks {
		npc += len(b.Instrs)
	}
	c := make([]int64, 2*nb+npc)
	shape := make([]int32, nb+1+npc)
	pr := &Profile{
		Blocks: c[:nb:nb], Fall: c[nb : 2*nb : 2*nb], Taken: c[2*nb:],
		Start: shape[: nb+1 : nb+1], Target: shape[nb+1:],
		Labels: make([]string, nb),
	}
	pc := int32(0)
	for i, b := range p.Blocks {
		pr.Start[i], pr.Labels[i] = pc, b.Label
		for _, in := range b.Instrs {
			pr.Target[pc] = -1
			if ir.IsBranch(in.Op) || in.Op == ir.Jmp {
				pr.Target[pc] = in.TargetIndex
			}
			pc++
		}
	}
	pr.Start[nb] = pc
	return pr
}

// Edge returns the times control passed from block from to block to: the
// taken transfers of from's branches and jumps targeting to, plus its
// fall-through when to follows it.
func (pr *Profile) Edge(from, to int) int64 {
	var n int64
	for pc := pr.Start[from]; pc < pr.Start[from+1]; pc++ {
		if int(pr.Target[pc]) == to {
			n += pr.Taken[pc]
		}
	}
	if to == from+1 {
		n += pr.Fall[from]
	}
	return n
}

// BlockCount is Blocks by label, for tests and tools; an unknown label
// counts 0.
func (pr *Profile) BlockCount(label string) int64 {
	if i := slices.Index(pr.Labels, label); i >= 0 {
		return pr.Blocks[i]
	}
	return 0
}

// EdgeCount is Edge by label.
func (pr *Profile) EdgeCount(from, to string) int64 {
	if i, j := slices.Index(pr.Labels, from), slices.Index(pr.Labels, to); i >= 0 && j >= 0 {
		return pr.Edge(i, j)
	}
	return 0
}

// Options configures a reference run.
type Options struct {
	// MaxInstrs bounds execution (default 100M) to catch runaway programs.
	MaxInstrs int64
	// Handler is invoked on exceptions; nil aborts on the first exception.
	Handler FaultHandler
	// Collect enables profile collection.
	Collect bool
}

// Result is the outcome of a reference run.
type Result struct {
	Env     *Env
	Out     []int64
	MemSum  uint64
	Instrs  int64
	Profile *Profile
}

// Runtime routines callable via Jsr. The routine receives the value of the
// call's argument register. These model the I/O the paper treats as
// irreversible instructions.
var runtimeFns = map[string]func(arg int64, env *Env){
	"putint": func(arg int64, env *Env) { env.Out = append(env.Out, arg) },
}

// RuntimeKnown reports whether name is a defined runtime routine.
func RuntimeKnown(name string) bool { _, ok := runtimeFns[name]; return ok }

// Run executes p sequentially on the given memory (mutated in place) and
// returns the architectural result. The program must have been laid out
// (Layout) and validated: Run follows the resolved block positions, failing
// on a transfer that Layout has not resolved, and counts the profile, when
// collected, into arrays.
func Run(p *Program, m *mem.Memory, opts Options) (*Result, error) {
	if opts.MaxInstrs == 0 {
		opts.MaxInstrs = 100_000_000
	}
	env := &Env{Mem: m}
	res := &Result{Env: env}
	var prof *Profile
	if opts.Collect {
		prof = newProfile(p)
		res.Profile = prof
	}

	bi := p.Index(p.Entry)
	if bi < 0 {
		return nil, fmt.Errorf("prog: entry %q not found", p.Entry)
	}
	for {
		b := p.Blocks[bi]
		if prof != nil {
			prof.Blocks[bi]++
		}
		next, halted, err := runBlock(b, bi, len(p.Blocks), env, res, prof, &opts)
		if err != nil {
			return res, err
		}
		if halted {
			break
		}
		bi = next
		if bi >= len(p.Blocks) {
			return res, fmt.Errorf("prog: fell off the end of the program after block %q", b.Label)
		}
	}
	res.Out = env.Out
	res.MemSum = m.Checksum()
	return res, nil
}

// runBlock executes block bi of a program of nb blocks and returns the
// index of the next block, or halted=true.
func runBlock(b *Block, bi, nb int, env *Env, res *Result, prof *Profile, opts *Options) (int, bool, error) {
	for i := 0; i < len(b.Instrs); i++ {
		in := b.Instrs[i]
		res.Instrs++
		if res.Instrs > opts.MaxInstrs {
			return 0, false, fmt.Errorf("prog: instruction budget exceeded (%d)", opts.MaxInstrs)
		}
	retry:
		taken, exc := step(in, env)
		if exc != ir.ExcNone {
			info := ExcInfo{PC: in.PC, Kind: exc, Addr: faultAddr(in, env)}
			if opts.Handler != nil && opts.Handler(info, env) {
				goto retry
			}
			return 0, false, &info
		}
		switch {
		case in.Op == ir.Halt:
			return 0, true, nil
		case in.Op == ir.Jmp || taken:
			if in.TargetIndex < 0 {
				return 0, false, fmt.Errorf("prog: transfer to %q in block %q not laid out", in.Target, b.Label)
			}
			if prof != nil {
				prof.Taken[prof.Start[bi]+int32(i)]++
			}
			return int(in.TargetIndex), false, nil
		}
	}
	if prof != nil && bi+1 < nb {
		prof.Fall[bi]++
	}
	return bi + 1, false, nil
}

func faultAddr(in *ir.Instr, env *Env) int64 {
	if ir.IsMem(in.Op) {
		return env.Int[in.Src1.N] + in.Imm
	}
	return 0
}

// step executes one instruction's value semantics, returning whether a
// branch was taken and any exception raised.
func step(in *ir.Instr, env *Env) (taken bool, exc ir.ExcKind) {
	src2int := func() int64 {
		if in.Src2.Valid() {
			return env.Int[in.Src2.N]
		}
		return in.Imm
	}
	switch in.Op {
	case ir.Nop, ir.Check, ir.ConfirmSt:
		// No architectural effect on the reference machine.
	case ir.ClearTag:
		// Tags do not exist on the reference machine.
	case ir.Li:
		env.Set(in.Dest, in.Imm)
	case ir.Mov:
		env.Set(in.Dest, env.Int[in.Src1.N])
	case ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Slt:
		env.Set(in.Dest, ir.IntALUOp(in.Op, env.Int[in.Src1.N], src2int()))
	case ir.Div, ir.Rem:
		v, e := ir.IntDivOp(in.Op, env.Int[in.Src1.N], src2int())
		if e != ir.ExcNone {
			return false, e
		}
		env.Set(in.Dest, v)
	case ir.Ld, ir.Ldb:
		v, f := env.Mem.Read(env.Int[in.Src1.N]+in.Imm, ir.MemSize(in.Op))
		if f.Failed() {
			return false, f.Kind
		}
		env.Set(in.Dest, int64(v))
	case ir.Fld:
		v, f := env.Mem.Read(env.Int[in.Src1.N]+in.Imm, 8)
		if f.Failed() {
			return false, f.Kind
		}
		env.SetFP(in.Dest, math.Float64frombits(v))
	case ir.St, ir.Stb:
		if f := env.Mem.Write(env.Int[in.Src1.N]+in.Imm, ir.MemSize(in.Op), uint64(env.Int[in.Src2.N])); f.Failed() {
			return false, f.Kind
		}
	case ir.Fst:
		if f := env.Mem.Write(env.Int[in.Src1.N]+in.Imm, 8, math.Float64bits(env.FP[in.Src2.N])); f.Failed() {
			return false, f.Kind
		}
	case ir.SaveTR:
		// The reference machine has no tags; SaveTR degenerates to a store.
		if f := env.Mem.WriteTagged(env.Int[in.Src1.N]+in.Imm, uint64(env.Get(in.Src2)), 0); f.Failed() {
			return false, f.Kind
		}
	case ir.RestTR:
		v, _, f := env.Mem.ReadTagged(env.Int[in.Src1.N] + in.Imm)
		if f.Failed() {
			return false, f.Kind
		}
		env.Set(in.Dest, int64(v))
	case ir.Fadd, ir.Fsub, ir.Fmul, ir.Fdiv:
		v, e := ir.FPOp(in.Op, env.FP[in.Src1.N], env.FP[in.Src2.N])
		if e != ir.ExcNone {
			return false, e
		}
		env.SetFP(in.Dest, v)
	case ir.Fmov, ir.Fneg, ir.Fabs:
		env.SetFP(in.Dest, ir.FPUnOp(in.Op, env.FP[in.Src1.N]))
	case ir.Cvif:
		env.SetFP(in.Dest, float64(env.Int[in.Src1.N]))
	case ir.Cvfi:
		v, e := ir.CvfiOp(env.FP[in.Src1.N])
		if e != ir.ExcNone {
			return false, e
		}
		env.Set(in.Dest, v)
	case ir.Feq, ir.Flt, ir.Fle:
		v, e := ir.FPCmpOp(in.Op, env.FP[in.Src1.N], env.FP[in.Src2.N])
		if e != ir.ExcNone {
			return false, e
		}
		env.Set(in.Dest, v)
	case ir.Beq, ir.Bne, ir.Blt, ir.Bge:
		return ir.CondHolds(in.Op, env.Int[in.Src1.N], src2int()), ir.ExcNone
	case ir.Jmp, ir.Halt:
		// Control handled by the caller.
	case ir.Jsr:
		fn, ok := runtimeFns[in.Target]
		if !ok {
			panic(fmt.Sprintf("prog: unknown runtime routine %q", in.Target))
		}
		fn(env.Int[in.Src1.N], env)
	default:
		panic(fmt.Sprintf("prog: unhandled opcode %v", in.Op))
	}
	return false, ir.ExcNone
}
