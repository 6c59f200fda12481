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

// Branches returns the indices of control instructions in the block.
func (b *Block) Branches() []int {
	var out []int
	for i, in := range b.Instrs {
		if ir.IsControl(in.Op) {
			out = append(out, i)
		}
	}
	return out
}

// Program is an ordered list of blocks; execution starts at Entry (the first
// block when empty).
//
// Concurrency: a Program is not safe for concurrent mutation, but once fully
// constructed (and laid out, if PCs are needed) every read-only method —
// Block, BlockIndex, InstrAt, Successors, Clone, String, Validate — may be
// called from multiple goroutines simultaneously. The evaluation runner
// shares built and formed programs across workers on this guarantee;
// mutating consumers (the scheduler, formation) clone first.
type Program struct {
	Blocks []*Block
	Entry  string

	byLabel map[string]*Block
}

// New returns an empty program.
func NewProgram() *Program { return &Program{byLabel: map[string]*Block{}} }

// AddBlock appends a new block with the given label and instructions.
func (p *Program) AddBlock(label string, instrs ...*ir.Instr) *Block {
	if p.byLabel == nil {
		p.byLabel = map[string]*Block{}
	}
	if _, dup := p.byLabel[label]; dup {
		panic(fmt.Sprintf("prog: duplicate block label %q", label))
	}
	b := &Block{Label: label, Instrs: instrs}
	p.Blocks = append(p.Blocks, b)
	p.byLabel[label] = b
	if p.Entry == "" {
		p.Entry = label
	}
	return b
}

// Block returns the block with the given label, or nil. When the label
// index has not been built (a Program assembled by hand rather than through
// NewProgram/AddBlock/Reindex), it falls back to a linear scan instead of
// building the index, so Block never writes and stays safe for concurrent
// readers.
func (p *Program) Block(label string) *Block {
	if p.byLabel == nil {
		for _, b := range p.Blocks {
			if b.Label == label {
				return b
			}
		}
		return nil
	}
	return p.byLabel[label]
}

// BlockIndex returns the position of the labelled block in program order,
// or -1.
func (p *Program) BlockIndex(label string) int {
	for i, b := range p.Blocks {
		if b.Label == label {
			return i
		}
	}
	return -1
}

// Reindex rebuilds the label index after direct manipulation of Blocks
// (e.g. by superblock formation). It panics on duplicate labels.
func (p *Program) Reindex() {
	p.byLabel = make(map[string]*Block, len(p.Blocks))
	for _, b := range p.Blocks {
		if _, dup := p.byLabel[b.Label]; dup {
			panic(fmt.Sprintf("prog: duplicate block label %q", b.Label))
		}
		p.byLabel[b.Label] = b
	}
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	np := NewProgram()
	np.Entry = p.Entry
	for _, b := range p.Blocks {
		nb := b.Clone()
		np.Blocks = append(np.Blocks, nb)
		np.byLabel[nb.Label] = nb
	}
	return np
}

// Layout assigns a unique PC to every instruction (sequential across blocks
// in program order) and returns the total instruction count. The simulator
// reports exception PCs in this numbering.
func (p *Program) Layout() int {
	pc := 0
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			in.PC = pc
			pc++
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

// Successors returns the labels a block can transfer control to: every
// branch/jump target plus fall-through to the next block (unless the block
// ends in an unconditional transfer or halt).
func (p *Program) Successors(b *Block) []string {
	var out []string
	seen := map[string]bool{}
	add := func(l string) {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	fallsThrough := true
	for i, in := range b.Instrs {
		switch {
		case ir.IsBranch(in.Op):
			add(in.Target)
		case in.Op == ir.Jmp:
			add(in.Target)
			if i == len(b.Instrs)-1 {
				fallsThrough = false
			}
		case in.Op == ir.Halt:
			if i == len(b.Instrs)-1 {
				fallsThrough = false
			}
		}
	}
	if fallsThrough {
		if idx := p.BlockIndex(b.Label); idx >= 0 && idx+1 < len(p.Blocks) {
			add(p.Blocks[idx+1].Label)
		}
	}
	return out
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
