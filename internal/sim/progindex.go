package sim

import (
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

// opRec is an instruction's operands pre-decoded for the simulator's issue
// path: dense register indices (ir.Reg.Index) of Src1, Src2 and Dest, -1
// where the operand is absent or r0 (which the scoreboard, the exception
// tags and the shadow file all ignore), and the opcode's latency.
type opRec struct {
	src1, src2, dest int8
	lat              uint8
}

// decodeOps builds in's operand record.
func decodeOps(in *ir.Instr) opRec {
	dense := func(r ir.Reg) int8 {
		if !r.Valid() || r.IsZero() {
			return -1
		}
		return int8(r.Index())
	}
	return opRec{src1: dense(in.Src1), src2: dense(in.Src2), dest: dense(in.Dest),
		lat: uint8(machine.Latency(in.Op))}
}

// ProgIndex is a dense PC-indexed acceleration structure for Run: per-PC
// (block, instruction) positions for recovery restarts, per-PC branch
// target block indices so a taken transfer does not pay prog.BlockIndex's
// linear label scan on every redirect, and per-instruction operand records
// so the issue path decodes no register operand. Build one with
// NewProgIndex and pass it via Options.Index to amortise the construction
// across the many runs of a single scheduled program (Run otherwise builds
// its own, once, up front).
type ProgIndex struct {
	p *prog.Program

	// pos maps PC -> position when the program's PCs are the dense range
	// 0..n-1 (the invariant prog.Layout establishes); posMap is the fallback
	// for programs with gaps or duplicates.
	pos    []pos
	posMap map[int]pos

	// targetBlock maps PC -> block index of that instruction's Target label,
	// or -1 (no target, unknown label, or runtime routine).
	targetBlock []int32

	byLabel map[string]int32

	// ops holds every instruction's operand record in layout order; block
	// bi's records are ops[opsAt[bi]:opsAt[bi+1]], indexed like its Instrs.
	ops   []opRec
	opsAt []int32

	// Branch-history footprint: every conditional branch gets a dense id so
	// predictor tables index by a small integer instead of hashing PCs, and
	// its static (backward-taken/forward-not-taken) prediction is resolved
	// at build time. branchID is PC-indexed in the dense layout; branchIDMap
	// is the sparse fallback. staticTaken is indexed by branch id.
	branchID    []int32
	branchIDMap map[int]int32
	staticTaken []bool
}

// NumBranches reports the number of static conditional branches indexed.
func (ix *ProgIndex) NumBranches() int { return len(ix.staticTaken) }

// branchOf returns the dense branch id of the conditional branch at pc, or
// -1 when pc holds no indexed branch.
func (ix *ProgIndex) branchOf(pc int) int32 {
	if ix.branchID != nil {
		if pc < 0 || pc >= len(ix.branchID) {
			return -1
		}
		return ix.branchID[pc]
	}
	if id, ok := ix.branchIDMap[pc]; ok {
		return id
	}
	return -1
}

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
	ix := &ProgIndex{p: p, byLabel: make(map[string]int32, len(p.Blocks)),
		ops: make([]opRec, 0, n), opsAt: make([]int32, 0, len(p.Blocks)+1)}
	for bi, b := range p.Blocks {
		if _, dup := ix.byLabel[b.Label]; !dup {
			ix.byLabel[b.Label] = int32(bi)
		}
	}

	dense := true
	seen := make([]bool, n)
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if in.PC < 0 || in.PC >= n || seen[in.PC] {
				dense = false
				break
			}
			seen[in.PC] = true
		}
		if !dense {
			break
		}
	}

	if dense {
		ix.pos = make([]pos, n)
		ix.targetBlock = make([]int32, n)
		ix.branchID = make([]int32, n)
		for i := range ix.branchID {
			ix.branchID[i] = -1
		}
	} else {
		ix.posMap = make(map[int]pos, n)
		ix.branchIDMap = make(map[int]int32)
	}
	for bi, b := range p.Blocks {
		ix.opsAt = append(ix.opsAt, int32(len(ix.ops)))
		for ii, in := range b.Instrs {
			ix.ops = append(ix.ops, decodeOps(in))
			tb := int32(-1)
			if in.Target != "" {
				if t, ok := ix.byLabel[in.Target]; ok {
					tb = t
				}
			}
			if dense {
				ix.pos[in.PC] = pos{int32(bi), int32(ii)}
				ix.targetBlock[in.PC] = tb
			} else {
				ix.posMap[in.PC] = pos{int32(bi), int32(ii)}
			}
			if ir.IsBranch(in.Op) {
				id := int32(len(ix.staticTaken))
				if dense {
					ix.branchID[in.PC] = id
				} else {
					ix.branchIDMap[in.PC] = id
				}
				// Backward (target block at or before this one in layout
				// order) predicts taken; forward or unresolved, not-taken.
				ix.staticTaken = append(ix.staticTaken, tb >= 0 && tb <= int32(bi))
			}
		}
	}
	ix.opsAt = append(ix.opsAt, int32(len(ix.ops)))
	return ix
}

// blockOps returns block bi's operand records, indexed like its Instrs.
func (ix *ProgIndex) blockOps(bi int) []opRec {
	return ix.ops[ix.opsAt[bi]:ix.opsAt[bi+1]]
}

// lookup returns the position of pc, for recovery restarts.
func (ix *ProgIndex) lookup(pc int) (pos, bool) {
	if ix.pos != nil {
		if pc < 0 || pc >= len(ix.pos) {
			return pos{}, false
		}
		return ix.pos[pc], true
	}
	rp, ok := ix.posMap[pc]
	return rp, ok
}

// blockOf resolves a control transfer: the block index of the label targeted
// by the instruction at pc, or -1 when the label names no block (matching
// prog.BlockIndex). The per-PC precomputation covers the scheduled-program
// hot path; the label map covers everything else.
func (ix *ProgIndex) blockOf(pc int, label string) int {
	if ix.targetBlock != nil && pc >= 0 && pc < len(ix.targetBlock) {
		if tb := ix.targetBlock[pc]; tb >= 0 {
			return int(tb)
		}
	}
	if bi, ok := ix.byLabel[label]; ok {
		return int(bi)
	}
	return -1
}
