// Package prog defines whole programs as ordered lists of labelled blocks,
// plus the reference sequential interpreter that serves as architectural
// ground truth and as the profiler driving superblock formation.
//
// A Block before superblock formation is a basic block (at most one control
// instruction, at the end). After formation, blocks may be superblocks:
// control enters only at the top but may leave at interior side-exit
// branches. Control falls through from each block to the next block in
// program order unless an instruction transfers it elsewhere.
package prog

import (
	"fmt"

	"sentinel/internal/ir"
)

// Block is a labelled straight-line sequence of instructions.
type Block struct {
	Label  string
	Instrs []*ir.Instr

	// Superblock marks blocks produced by superblock formation; the
	// scheduler only reorders within superblocks.
	Superblock bool

	// WeightHint carries the profiled execution count through formation so
	// the evaluator can report per-block contributions.
	WeightHint int64
}

// Clone deep-copies the block. The copies live in one slab, so a block of
// any length costs three allocations.
func (b *Block) Clone() *Block {
	nb := &Block{Label: b.Label, Superblock: b.Superblock, WeightHint: b.WeightHint}
	slab := make([]ir.Instr, len(b.Instrs))
	nb.Instrs = make([]*ir.Instr, len(b.Instrs))
	for i, in := range b.Instrs {
		slab[i] = *in
		nb.Instrs[i] = &slab[i]
	}
	return nb
}

// Program is an ordered list of blocks; execution starts at Entry (the first
// block when empty).
//
// Control flow is addressed by block position: Layout resolves every
// branch and jump target to its block's index (ir.Instr.TargetIndex), and a
// block that does not end in a jump or halt falls through to the next
// position. Labels stay for text, errors and the label lookups of tests
// and tools.
//
// Concurrency: a Program is not safe for concurrent mutation, but once fully
// constructed and laid out every read-only method — Block, Index, InstrAt,
// AppendSuccessors, Clone, String, Validate — and every analysis reading it
// (Run, dataflow.Compute, superblock.Form) may run from multiple goroutines
// simultaneously: readers never write to a Program. The evaluation runner
// shares built and formed programs across workers on this guarantee;
// mutating consumers (the scheduler, formation) clone first, except on a
// program its owner hands over (core.ScheduleOwned, superblock.FormOwned).
type Program struct {
	Blocks []*Block
	Entry  string

	byLabel map[string]int32
}

// New returns an empty program.
func NewProgram() *Program { return &Program{byLabel: map[string]int32{}} }

// AddBlock appends a new block with the given label and instructions.
func (p *Program) AddBlock(label string, instrs ...*ir.Instr) *Block {
	if p.byLabel == nil {
		p.Reindex()
	}
	if _, dup := p.byLabel[label]; dup {
		panic(fmt.Sprintf("prog: duplicate block label %q", label))
	}
	b := &Block{Label: label, Instrs: instrs}
	p.byLabel[label] = int32(len(p.Blocks))
	p.Blocks = append(p.Blocks, b)
	if p.Entry == "" {
		p.Entry = label
	}
	return b
}

// Block returns the block with the given label, or nil.
func (p *Program) Block(label string) *Block {
	if i := p.Index(label); i >= 0 {
		return p.Blocks[i]
	}
	return nil
}

// Index returns the position of the labelled block in program order, or
// -1. When the label index has not been built (a Program assembled by hand
// rather than through NewProgram/AddBlock/Reindex), it falls back to a
// linear scan instead of building the index, so Index never writes and
// stays safe for concurrent readers.
func (p *Program) Index(label string) int {
	if p.byLabel == nil {
		for i, b := range p.Blocks {
			if b.Label == label {
				return i
			}
		}
		return -1
	}
	if i, ok := p.byLabel[label]; ok {
		return int(i)
	}
	return -1
}

// Reindex rebuilds the label index after direct manipulation of Blocks
// (e.g. by superblock formation). It panics on duplicate labels.
func (p *Program) Reindex() {
	p.byLabel = make(map[string]int32, len(p.Blocks))
	for i, b := range p.Blocks {
		if _, dup := p.byLabel[b.Label]; dup {
			panic(fmt.Sprintf("prog: duplicate block label %q", b.Label))
		}
		p.byLabel[b.Label] = int32(i)
	}
}

// Clone deep-copies the program, laid out as p was.
func (p *Program) Clone() *Program {
	np := &Program{Entry: p.Entry, Blocks: make([]*Block, len(p.Blocks)),
		byLabel: make(map[string]int32, len(p.Blocks))}
	for i, b := range p.Blocks {
		np.Blocks[i] = b.Clone()
		np.byLabel[b.Label] = int32(i)
	}
	return np
}

// Layout assigns a unique PC to every instruction (sequential across blocks
// in program order), resolves every branch and jump target to its block's
// position, and returns the total instruction count. The simulator reports
// exception PCs in this numbering. Every reader of the control flow relies
// on the resolved targets, so Layout must follow any edit of the blocks or
// of a target (after Reindex, when Blocks was edited directly).
func (p *Program) Layout() int {
	if p.byLabel == nil {
		p.Reindex()
	}
	pc := 0
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			in.PC = pc
			pc++
			if ir.IsBranch(in.Op) || in.Op == ir.Jmp {
				in.TargetIndex = int32(p.Index(in.Target))
			}
		}
	}
	return pc
}

// InstrAt returns the instruction with the given PC along with its block and
// index, or nils. Layout must have been called.
func (p *Program) InstrAt(pc int) (*ir.Instr, *Block, int) {
	for _, b := range p.Blocks {
		for i, in := range b.Instrs {
			if in.PC == pc {
				return in, b, i
			}
		}
	}
	return nil, nil, -1
}

// FallsThrough reports whether control can leave block i at its end for
// block i+1: it has a next block and does not end in a jump or halt.
func (p *Program) FallsThrough(i int) bool {
	if i+1 >= len(p.Blocks) {
		return false
	}
	b := p.Blocks[i]
	if n := len(b.Instrs); n > 0 {
		if op := b.Instrs[n-1].Op; op == ir.Jmp || op == ir.Halt {
			return false
		}
	}
	return true
}

// AppendSuccessors appends the positions of the blocks block i can
// transfer control to — every resolved branch/jump target in instruction
// order, then the fall-through — to dst and returns the extended slice. A
// block reached two ways appears twice. With a dst of enough capacity it
// does not allocate.
func (p *Program) AppendSuccessors(dst []int32, i int) []int32 {
	for _, in := range p.Blocks[i].Instrs {
		if (ir.IsBranch(in.Op) || in.Op == ir.Jmp) && in.TargetIndex >= 0 {
			dst = append(dst, in.TargetIndex)
		}
	}
	if p.FallsThrough(i) {
		dst = append(dst, int32(i+1))
	}
	return dst
}

// Validate checks structural well-formedness: a nonempty entry block, all
// control-transfer targets defined, Jmp/Halt only in terminal position of a
// block (pre-scheduling basic-block discipline is NOT enforced here, since
// superblocks legally contain interior conditional branches).
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("prog: empty program")
	}
	if p.Block(p.Entry) == nil {
		return fmt.Errorf("prog: entry block %q not found", p.Entry)
	}
	for _, b := range p.Blocks {
		for i, in := range b.Instrs {
			switch {
			case ir.IsBranch(in.Op) || in.Op == ir.Jmp:
				if p.Block(in.Target) == nil {
					return fmt.Errorf("prog: block %q instr %d: undefined target %q", b.Label, i, in.Target)
				}
			case in.Op == ir.Jsr && in.Target == "":
				return fmt.Errorf("prog: block %q instr %d: jsr without routine name", b.Label, i)
			}
			if (in.Op == ir.Jmp || in.Op == ir.Halt) && i != len(b.Instrs)-1 {
				return fmt.Errorf("prog: block %q instr %d: %v must terminate its block", b.Label, i, in.Op)
			}
		}
	}
	return nil
}

// String renders the program as assembly text.
func (p *Program) String() string {
	var buf []byte
	for _, b := range p.Blocks {
		buf = append(buf, b.Label...)
		buf = append(buf, ":\n"...)
		for _, in := range b.Instrs {
			buf = append(buf, '\t')
			buf = in.AppendText(buf)
			buf = append(buf, '\n')
		}
	}
	return string(buf)
}
