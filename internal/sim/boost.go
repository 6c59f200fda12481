package sim

import (
	"math/bits"

	"sentinel/internal/ir"
)

// Shadow register state for the instruction-boosting model (§2.3, after
// Smith, Lam and Horowitz). A result boosted above k branches is written to
// shadow level k; each correctly predicted (not-taken) branch commits level
// 1 to the architectural file and shifts the higher levels down; a
// mispredicted (taken) branch discards all shadow state. Exceptions of
// boosted instructions are recorded in the shadow entry and signalled when
// the entry commits — precise attribution, at the price of one full shadow
// register file per level.

type shadowVal struct {
	raw   int64
	exc   ir.ExcKind
	excPC int64
}

// numRegs is the size of the dense register index space (ir.Reg.Index).
const numRegs = ir.NumIntRegs + ir.NumFPRegs

// regMask is a presence bitmap over the dense register index space.
type regMask [numRegs / 64]uint64

func (s *regMask) set(idx int)      { s[idx>>6] |= 1 << (idx & 63) }
func (s *regMask) has(idx int) bool { return s[idx>>6]&(1<<(idx&63)) != 0 }

// shadowLevel is one shadow register file. Its entries are valid only where
// the presence bitmap is set, so discarding a level clears 16 bytes rather
// than the whole file, and a commit visits only the registers it holds.
type shadowLevel struct {
	live regMask
	vals [numRegs]shadowVal
}

// shadowFile holds one shadow register file per boost level, in a ring: the
// commit shift renames level l+1 to level l by advancing base, copying
// nothing.
type shadowFile struct {
	levels []shadowLevel
	base   int // index in levels of (logical) level 1

	// inline backs levels for up to two boost levels (the base machine's),
	// so the shadow file adds no allocation of its own.
	inline [2]shadowLevel
}

// init sizes the file to the given number of levels, all empty.
func (sf *shadowFile) init(levels int) {
	if levels <= len(sf.inline) {
		sf.levels = sf.inline[:levels]
	} else {
		sf.levels = make([]shadowLevel, levels)
	}
	sf.base = 0
	sf.discard()
}

// level returns the shadow file of a 1-based logical level.
func (sf *shadowFile) level(l int) *shadowLevel {
	p := sf.base + l - 1
	if p >= len(sf.levels) {
		p -= len(sf.levels)
	}
	return &sf.levels[p]
}

// write stores a boosted result (or its exception record) for the register
// with dense index idx at the given level (1-based).
func (sf *shadowFile) write(level, idx int, raw int64, exc ir.ExcKind, excPC int64) {
	sl := sf.level(level)
	sl.vals[idx] = shadowVal{raw: raw, exc: exc, excPC: excPC}
	sl.live.set(idx)
}

// read returns the newest value of register idx visible to an instruction
// boosted above `level` branches: shadow levels level..1; false means the
// architectural value is current.
func (sf *shadowFile) read(level, idx int) (shadowVal, bool) {
	for l := level; l >= 1; l-- {
		if sl := sf.level(l); sl.live.has(idx) {
			return sl.vals[idx], true
		}
	}
	return shadowVal{}, false
}

// commit applies shadow level 1 to the architectural state via the apply
// callback, called for each present entry in ascending register index;
// returning false aborts (an entry's recorded exception signals) and leaves
// every level in place. Otherwise level 1 empties and becomes the new top
// level, shifting the others down.
func (sf *shadowFile) commit(apply func(idx int, v shadowVal) bool) bool {
	sl := sf.level(1)
	for w, word := range sl.live {
		for ; word != 0; word &= word - 1 {
			idx := w<<6 | bits.TrailingZeros64(word)
			if !apply(idx, sl.vals[idx]) {
				return false
			}
		}
	}
	sl.live = regMask{}
	if sf.base++; sf.base == len(sf.levels) {
		sf.base = 0
	}
	return true
}

// discard clears all shadow state (branch misprediction).
func (sf *shadowFile) discard() {
	for i := range sf.levels {
		sf.levels[i].live = regMask{}
	}
}

// rdRawAt reads the raw bits of the register with dense index r through
// the shadow file at the given boost level: the newest shadow value at
// levels level..1, else the architectural value.
func (m *Machine) rdRawAt(level int, r int8) int64 {
	if v, ok := m.boost.read(level, int(r)); ok {
		return v.raw
	}
	return m.rawAt(r)
}

// execBoosted executes a boosted (Spec, BoostLevel >= 1) register-writing
// instruction: its result goes to the shadow file; an exception is recorded
// in the shadow entry rather than signalled.
func (m *Machine) execBoosted(in *ir.Instr, op *opRec, imm, t int64) (event, error) {
	lvl := in.BoostLevel
	val, exc := m.compute(op, m.rdRawAt(lvl, op.src1), m.rdRawAt(lvl, op.src2), imm)
	if d := op.dest; d >= 0 {
		if exc != ir.ExcNone {
			m.stats.TagSets++
			if m.trace != nil {
				m.trace.FlowStart(int64(in.PC), traceSlot(in), t)
			}
			m.boost.write(lvl, int(d), 0, exc, int64(in.PC))
		} else {
			m.boost.write(lvl, int(d), val, ir.ExcNone, 0)
		}
		m.setReady(d, t+int64(op.lat))
	}
	return event{}, nil
}

// execBoostedStore inserts a boosted store into the store buffer as a
// shadow entry at its boost level; branch commits decrement the level and
// level 0 confirms the entry (§2.3's shadow store buffers, realized on the
// same buffer that serves §4's probationary entries).
func (m *Machine) execBoostedStore(in *ir.Instr, op *opRec, imm, t int64) (event, error) {
	lvl := in.BoostLevel
	addr := m.rdRawAt(lvl, op.src1) + imm
	size := ir.MemSize(op.op)
	data := uint64(m.rdRawAt(lvl, op.src2))
	e := Entry{Addr: addr, Size: size, Data: data, Level: lvl}
	if fault := m.Mem.Check(addr, size); fault.Failed() {
		e.ExcSet, e.ExcKind, e.ExcPC = true, fault.Kind, int64(in.PC)
		m.stats.TagSets++
		if m.trace != nil {
			m.trace.FlowStart(int64(in.PC), traceSlot(in), t)
		}
	}
	t2, err := m.buf.insert(t, e, m.Mem)
	if err != nil {
		return event{}, err
	}
	m.noteBufInsert(t2)
	return event{stall: t2 - t}, nil
}

// commitBoost commits one shadow level (a correctly predicted branch): the
// first recorded exception signals with the boosted instruction's PC.
func (m *Machine) commitBoost() (ev event) {
	ok := m.boost.commit(func(idx int, v shadowVal) bool {
		if v.exc != ir.ExcNone {
			ev = signal(v.excPC, v.exc)
			return false
		}
		m.setRawAt(int8(idx), v.raw)
		return true
	})
	if !ok {
		return ev
	}
	// Shadow store-buffer entries move one level closer to commitment.
	if bev := m.buf.commitLevel(); bev != nil {
		return signal(bev.ExcPC, bev.ExcKind)
	}
	return event{}
}
