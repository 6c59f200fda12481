package sim

import (
	"fmt"
	"math"

	"sentinel/internal/ir"
	"sentinel/internal/machine"
)

// flow is what an executed instruction does to the instruction stream.
type flow uint8

const (
	flowNext   flow = iota // continue with the next instruction
	flowTaken              // transfer control to the instruction's Target
	flowSignal             // signal an exception (event.reportPC, event.kind)
)

// event is the outcome of executing one instruction. It has at most four
// fields so the compiler keeps exec's result in registers: a wider struct is
// spilled byte by byte and reloaded as a vector, a store-forwarding stall
// on every dynamic instruction.
type event struct {
	flow     flow
	kind     ir.ExcKind
	reportPC int
	stall    int64 // extra cycles lost to store-buffer pressure
}

func (e event) signalled() bool { return e.flow == flowSignal }
func (e event) taken() bool     { return e.flow == flowTaken }

func signal(reportPC int64, kind ir.ExcKind) event {
	return event{flow: flowSignal, reportPC: int(reportPC), kind: kind}
}

// exec executes one instruction, whose operand record is op, at issue time
// t, implementing Table 1 (exception detection with sentinel scheduling)
// and Table 2 (store-buffer insertion).
func (m *Machine) exec(in *ir.Instr, op opRec, t int64) (event, error) {
	m.pcq.Push(in.PC)
	usesTags := m.usesTags

	switch in.Op {
	case ir.Nop, ir.Halt:
		return event{}, nil

	case ir.ClearTag:
		m.setTag(op.dest, Tag{})
		m.setReady(op.dest, t+1)
		return event{}, nil

	case ir.Check:
		// The explicit sentinel: signals iff its source carries an
		// exception condition; performs no computation (§3.2).
		if usesTags {
			if r := op.src1; r >= 0 && m.Tags[r].Set {
				return signal(m.rawAt(r), m.Tags[r].Kind), nil
			}
		}
		return event{}, nil

	case ir.ConfirmSt:
		exc, kind, excPC, err := m.buf.confirm(in.Imm)
		if err != nil {
			return event{}, err
		}
		if exc {
			return signal(excPC, kind), nil
		}
		return event{}, nil

	case ir.Jmp:
		return event{flow: flowTaken}, nil

	case ir.Jsr:
		// Calls are never speculative; a tagged argument register makes the
		// call act as a sentinel.
		if usesTags {
			if r := op.src1; r >= 0 && m.Tags[r].Set {
				return signal(m.rawAt(r), m.Tags[r].Kind), nil
			}
		}
		switch in.Target {
		case "putint":
			m.out = append(m.out, m.Int[in.Src1.N])
		default:
			return event{}, fmt.Errorf("sim: unknown runtime routine %q", in.Target)
		}
		return event{}, nil

	case ir.Beq, ir.Bne, ir.Blt, ir.Bge:
		// Branches are never speculative; a tagged source makes the branch
		// the sentinel (Table 1, spec=0 rows).
		if usesTags {
			if r := m.firstTaggedSrc(op); r >= 0 {
				return signal(m.rawAt(r), m.Tags[r].Kind), nil
			}
		}
		b := in.Imm
		if in.Src2.Valid() {
			b = m.Int[in.Src2.N]
		}
		if ir.CondHolds(in.Op, m.Int[in.Src1.N], b) {
			if m.boost != nil {
				m.boost.discard() // misprediction: shadow state dies
			}
			return event{flow: flowTaken}, nil
		}
		if m.boost != nil {
			// Correct prediction: one shadow level commits; a recorded
			// boosted exception signals here with the boosted PC (§2.3).
			if ev := m.commitBoost(); ev.signalled() {
				return ev, nil
			}
		}
		return event{}, nil

	case ir.SaveTR:
		// Save data AND exception tag without signalling (§3.2), e.g. for
		// register spill, function call or context switch.
		m.buf.flushConfirmed(m.Mem)
		addr := m.Int[in.Src1.N] + in.Imm
		var tg Tag
		if r := op.src2; r >= 0 {
			tg = m.Tags[r]
		}
		var tagByte byte
		if tg.Set {
			tagByte = byte(tg.Kind)
		}
		if f := m.Mem.WriteTagged(addr, uint64(m.Raw(in.Src2)), tagByte); f != nil {
			return signal(int64(in.PC), f.Kind), nil
		}
		return event{}, nil

	case ir.RestTR:
		m.buf.flushConfirmed(m.Mem)
		addr := m.Int[in.Src1.N] + in.Imm
		v, tagByte, f := m.Mem.ReadTagged(addr)
		if f != nil {
			return signal(int64(in.PC), f.Kind), nil
		}
		m.SetRaw(in.Dest, int64(v))
		if tagByte != 0 {
			m.setTag(op.dest, Tag{Set: true, Kind: ir.ExcKind(tagByte)})
		} else {
			m.setTag(op.dest, Tag{})
		}
		m.setReady(op.dest, t+int64(op.lat))
		return event{}, nil
	}

	if m.boost != nil && in.Spec {
		if ir.BufferedStore(in.Op) {
			return m.execBoostedStore(in, t)
		}
		return m.execBoosted(in, op, t)
	}
	if ir.BufferedStore(in.Op) {
		return m.execStore(in, op, t, usesTags)
	}
	return m.execValue(in, op, t, usesTags)
}

// execValue implements Table 1 for register-writing instructions.
func (m *Machine) execValue(in *ir.Instr, op opRec, t int64, usesTags bool) (event, error) {
	srcTag := int8(-1)
	if usesTags {
		srcTag = m.firstTaggedSrc(op)
	}
	lat := int64(op.lat)

	if in.Spec {
		if srcTag >= 0 {
			// Exception propagation (Table 1, spec=1 src-tag=1 rows): the
			// destination's tag is set and the first tagged source's data
			// (the excepting PC) is copied through.
			tg := m.Tags[srcTag]
			m.stats.TagPropagations++
			if m.trace != nil {
				m.trace.FlowStep(m.rawAt(srcTag), traceSlot(in), t)
			}
			m.SetRaw(in.Dest, m.rawAt(srcTag))
			m.setTag(op.dest, tg)
			m.setReady(op.dest, t+lat)
			return event{}, nil
		}
		val, exc := m.compute(in)
		if exc != ir.ExcNone {
			if usesTags {
				// Table 1, spec=1 row: tag set, data = PC of I, no signal.
				if !m.pcq.Contains(in.PC) {
					return event{}, fmt.Errorf("sim: pc %d aged out of the PC history queue", in.PC)
				}
				m.stats.TagSets++
				if m.trace != nil {
					m.trace.FlowStart(int64(in.PC), traceSlot(in), t)
				}
				m.SetRaw(in.Dest, int64(in.PC))
				m.setTag(op.dest, Tag{Set: true, Kind: exc})
			} else {
				// General percolation (§2.4): the silent version writes a
				// garbage value and the exception is ignored.
				m.SetRaw(in.Dest, GarbageValue)
			}
			m.setReady(op.dest, t+lat)
			return event{}, nil
		}
		m.SetRaw(in.Dest, val)
		m.setTag(op.dest, Tag{})
		m.setReady(op.dest, t+lat)
		return event{}, nil
	}

	// Non-speculative (Table 1, spec=0 rows).
	if srcTag >= 0 {
		// This instruction is the sentinel for an earlier speculative
		// exception: signal, reporting the tagged source's data as the PC.
		return signal(m.rawAt(srcTag), m.Tags[srcTag].Kind), nil
	}
	val, exc := m.compute(in)
	if exc != ir.ExcNone {
		return signal(int64(in.PC), exc), nil
	}
	m.SetRaw(in.Dest, val)
	m.setTag(op.dest, Tag{})
	m.setReady(op.dest, t+lat)
	return event{}, nil
}

// execStore implements Table 2: insertion of a store into the store buffer.
func (m *Machine) execStore(in *ir.Instr, op opRec, t int64, usesTags bool) (event, error) {
	srcTag := int8(-1)
	if usesTags {
		srcTag = m.firstTaggedSrc(op)
	}
	addr := m.Int[in.Src1.N] + in.Imm
	size := ir.MemSize(in.Op)
	data := uint64(m.Raw(in.Src2))
	fault := m.Mem.Check(addr, size)

	if !in.Spec {
		if srcTag >= 0 {
			// Table 2 rows 010/011: the store is the sentinel.
			return signal(m.rawAt(srcTag), m.Tags[srcTag].Kind), nil
		}
		if fault != nil {
			// Table 2 row 001: force confirmed head entries to update the
			// cache, then process the exception precisely.
			m.buf.flushConfirmed(m.Mem)
			return signal(int64(in.PC), fault.Kind), nil
		}
		t2, err := m.buf.insert(t, Entry{Addr: addr, Size: size, Data: data, Confirmed: true}, m.Mem)
		if err != nil {
			return event{}, err
		}
		m.noteBufInsert(t2)
		return event{stall: t2 - t}, nil
	}

	// Speculative store: allowed only under the §4 extension.
	if m.md.Model != machine.SentinelStores {
		return event{}, fmt.Errorf("sim: speculative store under model %v at pc %d", m.md.Model, in.PC)
	}
	e := Entry{Addr: addr, Size: size, Data: data}
	switch {
	case srcTag >= 0:
		// Table 2 rows 110/111: propagate the source's exception condition
		// into the probationary entry.
		e.ExcSet, e.ExcKind, e.ExcPC = true, m.Tags[srcTag].Kind, m.rawAt(srcTag)
		m.stats.TagPropagations++
		if m.trace != nil {
			m.trace.FlowStep(e.ExcPC, traceSlot(in), t)
		}
	case fault != nil:
		// Table 2 row 101: record the store's own exception.
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

// noteBufInsert records store-buffer occupancy observability after an
// insert completing at time t: the high-water mark (occupancy only grows at
// inserts) and, when tracing, a counter-track sample.
func (m *Machine) noteBufInsert(t int64) {
	n := int64(m.buf.Len())
	if n > m.stats.StoreBufferHighWater {
		m.stats.StoreBufferHighWater = n
	}
	if m.trace != nil {
		m.trace.Counter("store-buffer", t, n)
	}
}

// setReady records the scoreboard availability time of the register with
// dense index r (-1, no register or r0, is ignored).
func (m *Machine) setReady(r int8, at int64) {
	if r >= 0 {
		m.readyAt[r] = at
	}
}

// compute evaluates the value semantics of a non-store, register-writing
// instruction, returning the raw result bits and any exception.
func (m *Machine) compute(in *ir.Instr) (int64, ir.ExcKind) {
	// Reads go through the shadow file at the current boost level; at level
	// 0 (every model but boosting) they are plain architectural reads.
	lvl := m.curLvl
	rdi := func(r ir.Reg) int64 { return m.rdInt(lvl, r) }
	rdf := func(r ir.Reg) float64 { return m.rdFP(lvl, r) }
	src2 := func() int64 {
		if in.Src2.Valid() {
			return rdi(in.Src2)
		}
		return in.Imm
	}
	switch in.Op {
	case ir.Li:
		return in.Imm, ir.ExcNone
	case ir.Mov:
		return rdi(in.Src1), ir.ExcNone
	case ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Slt:
		return ir.IntALUOp(in.Op, rdi(in.Src1), src2()), ir.ExcNone
	case ir.Div, ir.Rem:
		return ir.IntDivOp(in.Op, rdi(in.Src1), src2())
	case ir.Ld, ir.Ldb:
		v, f := m.buf.loadOverlay(rdi(in.Src1)+in.Imm, ir.MemSize(in.Op), m.Mem)
		if f != nil {
			return 0, f.Kind
		}
		return int64(v), ir.ExcNone
	case ir.Fld:
		v, f := m.buf.loadOverlay(rdi(in.Src1)+in.Imm, 8, m.Mem)
		if f != nil {
			return 0, f.Kind
		}
		return int64(v), ir.ExcNone
	case ir.Fadd, ir.Fsub, ir.Fmul, ir.Fdiv:
		v, exc := ir.FPOp(in.Op, rdf(in.Src1), rdf(in.Src2))
		return int64(math.Float64bits(v)), exc
	case ir.Fmov, ir.Fneg, ir.Fabs:
		v := ir.FPUnOp(in.Op, rdf(in.Src1))
		return int64(math.Float64bits(v)), ir.ExcNone
	case ir.Cvif:
		return int64(math.Float64bits(float64(rdi(in.Src1)))), ir.ExcNone
	case ir.Cvfi:
		return ir.CvfiOp(rdf(in.Src1))
	case ir.Feq, ir.Flt, ir.Fle:
		return ir.FPCmpOp(in.Op, rdf(in.Src1), rdf(in.Src2))
	default:
		panic(fmt.Sprintf("sim: compute on %v", in.Op))
	}
}
