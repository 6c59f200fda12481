package sim

import (
	"math"
	"sort"
	"sync/atomic"

	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// progIndexBuilds counts ProgIndex constructions; tests assert that Run
// builds at most one index per program regardless of how many control
// transfers or recoveries the run takes.
var progIndexBuilds atomic.Int64

// pos is the (block, instruction) coordinate of a PC.
type pos struct{ block, idx int32 }

// opRec is one instruction pre-decoded for the simulator's issue path: all
// the issue loop and exec read of it on the common path, so neither
// dereferences the *ir.Instr except to trace, to call a runtime routine, to
// run a boosted instruction or to report an exception. 16 bytes.
type opRec struct {
	op    ir.Op
	lat   uint8
	flags uint8
	// src1 and src2 are dense read indices (ir.Reg.Index). r0 and an absent
	// operand read index 0, the hardwired zero, which never carries a tag or
	// a pending write, so the scoreboard and tag checks need no presence
	// test.
	src1, src2 int8
	// dest is the dense destination index, -1 for none or r0 (which the
	// scoreboard, the exception tags and the shadow file all ignore).
	dest int8
	// cycle is the scheduled cycle within the block (-1 unscheduled) and imm
	// the immediate, both from the *ir.Instr when fWide is set.
	cycle int16
	imm   int32
	// aux is a conditional branch's dense branch id, or a Jmp's target block
	// index; -1 otherwise, or when the target names no block.
	aux int32
}

// opRec flags.
const (
	fSpec uint8 = 1 << iota // the speculative modifier
	fImm                    // the second operand is the immediate (no Src2)
	// fFast marks an op the issue loop runs inline when it is not boosted
	// and no source is tagged: a load, or an integer op that cannot raise
	// an exception (li, mov and the ALU ops but div and rem) whose operands
	// are all integer registers.
	fFast
	// fWide marks an instruction whose cycle or immediate does not fit the
	// record; the issue loop reads both from the *ir.Instr.
	fWide
)

// intOp reports whether op is an integer op that cannot raise an
// exception.
func intOp(op ir.Op) bool {
	switch op {
	case ir.Li, ir.Mov, ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Slt:
		return true
	}
	return false
}

// decodeOp builds in's operand record, with no branch id or target (aux -1).
func decodeOp(in *ir.Instr) opRec {
	read := func(r ir.Reg) int8 {
		if !r.Valid() {
			return 0
		}
		return int8(r.Index())
	}
	op := opRec{op: in.Op, lat: uint8(machine.Latency(in.Op)),
		src1: read(in.Src1), src2: read(in.Src2), dest: -1,
		cycle: int16(in.Cycle), imm: int32(in.Imm), aux: -1}
	if in.Dest.Valid() && !in.Dest.IsZero() {
		op.dest = int8(in.Dest.Index())
	}
	if in.Spec {
		op.flags |= fSpec
	}
	if !in.Src2.Valid() {
		op.flags |= fImm
	}
	intOnly := func(r ir.Reg) bool { return !r.Valid() || r.Class == ir.IntClass }
	switch in.Op {
	case ir.Ld, ir.Ldb, ir.Fld:
		op.flags |= fFast
	default:
		if intOp(in.Op) && intOnly(in.Src1) && intOnly(in.Src2) && intOnly(in.Dest) {
			op.flags |= fFast
		}
	}
	if in.Cycle < math.MinInt16 || in.Cycle > math.MaxInt16 || in.Imm != int64(op.imm) {
		op.flags |= fWide
	}
	return op
}

// ProgIndex is a dense acceleration structure for Run: one operand record
// per instruction in layout order (block bi's are ops[opsAt[bi]:opsAt[bi+1]],
// indexed like its Instrs), carrying the branch id or jump target a control
// transfer needs, so the issue path decodes no operand and a redirect pays
// no label lookup. Under prog.Layout's numbering PC k is ops[k], so a
// recovery restart finds its position by binary search on opsAt. Build one
// with NewProgIndex and pass it via Options.Index to amortise the
// construction across the many runs of a single scheduled program (Run
// otherwise builds its own, once, up front).
type ProgIndex struct {
	p *prog.Program

	ops   []opRec
	opsAt []int32

	// posMap maps PC -> position for programs whose PCs are not their
	// layout positions (not laid out); nil after prog.Layout.
	posMap map[int]pos

	// Branch-history footprint: every conditional branch gets a dense id so
	// predictor tables index by a small integer instead of hashing PCs.
	// brTarget is the branch's target block (-1 when the label names no
	// block) and staticTaken its backward-taken/forward-not-taken
	// prediction, both indexed by branch id.
	brTarget    []int32
	staticTaken []bool
}

// NumBranches reports the number of static conditional branches indexed.
func (ix *ProgIndex) NumBranches() int { return len(ix.staticTaken) }

// StaticPrediction reports the backward-taken/forward-not-taken prediction
// of branch id b: taken iff the branch's target block does not lie after
// the branch in layout order (loop back-edges and self-loops predict
// taken; unresolved targets predict not-taken).
func (ix *ProgIndex) StaticPrediction(b int32) bool {
	return b >= 0 && int(b) < len(ix.staticTaken) && ix.staticTaken[b]
}

// NewProgIndex builds the index for a laid-out program. The index is valid
// until the program's blocks, instructions or labels change.
func NewProgIndex(p *prog.Program) *ProgIndex {
	progIndexBuilds.Add(1)
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	ix := &ProgIndex{p: p, ops: make([]opRec, 0, n), opsAt: make([]int32, 0, len(p.Blocks)+1)}
	k, branches := 0, 0
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if in.PC != k && ix.posMap == nil {
				ix.posMap = make(map[int]pos, n)
			}
			if ir.IsBranch(in.Op) {
				branches++
			}
			k++
		}
	}
	ix.brTarget = make([]int32, 0, branches)
	ix.staticTaken = make([]bool, 0, branches)
	for bi, b := range p.Blocks {
		ix.opsAt = append(ix.opsAt, int32(len(ix.ops)))
		for ii, in := range b.Instrs {
			if ix.posMap != nil {
				ix.posMap[in.PC] = pos{int32(bi), int32(ii)}
			}
			op := decodeOp(in)
			tb := int32(-1)
			if in.Target != "" {
				tb = int32(p.Index(in.Target))
			}
			switch {
			case ir.IsBranch(in.Op):
				op.aux = int32(len(ix.staticTaken))
				ix.brTarget = append(ix.brTarget, tb)
				// Backward (target block at or before this one in layout
				// order) predicts taken; forward or unresolved, not-taken.
				ix.staticTaken = append(ix.staticTaken, tb >= 0 && tb <= int32(bi))
			case in.Op == ir.Jmp:
				op.aux = tb
			}
			ix.ops = append(ix.ops, op)
		}
	}
	ix.opsAt = append(ix.opsAt, int32(len(ix.ops)))
	return ix
}

// lookup returns the position of pc, for recovery restarts.
func (ix *ProgIndex) lookup(pc int) (pos, bool) {
	if ix.posMap != nil {
		rp, ok := ix.posMap[pc]
		return rp, ok
	}
	if pc < 0 || pc >= len(ix.ops) {
		return pos{}, false
	}
	// The last block starting at or before pc holds it (an empty block
	// shares its start with its successor and sorts first).
	nb := len(ix.opsAt) - 1
	bi := sort.Search(nb, func(b int) bool { return int(ix.opsAt[b]) > pc }) - 1
	return pos{int32(bi), int32(pc) - ix.opsAt[bi]}, true
}
