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

// exec executes one instruction, whose operand record is op and immediate
// imm, at issue time t, implementing Table 1 (exception detection with
// sentinel scheduling) and Table 2 (store-buffer insertion). It reads in
// only on the rare paths: runtime calls, boosted instructions, tracing and
// exceptions.
func (m *Machine) exec(in *ir.Instr, op *opRec, imm, t int64) (event, error) {
	usesTags := m.usesTags

	switch op.op {
	case ir.Nop, ir.Halt:
		return event{}, nil

	case ir.ClearTag:
		m.setTag(op.dest, Tag{})
		m.setReady(op.dest, t+1)
		return event{}, nil

	case ir.Check:
		// The explicit sentinel: signals iff its source carries an
		// exception condition; performs no computation (§3.2).
		if r := op.src1; usesTags && m.Tags[r].Set {
			return signal(m.rawAt(r), m.Tags[r].Kind), nil
		}
		return event{}, nil

	case ir.ConfirmSt:
		exc, kind, excPC, err := m.buf.confirm(imm)
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
		if r := op.src1; usesTags && m.Tags[r].Set {
			return signal(m.rawAt(r), m.Tags[r].Kind), nil
		}
		switch in.Target {
		case "putint":
			m.out = append(m.out, m.intAt(op.src1))
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
		if ir.CondHolds(op.op, m.intAt(op.src1), m.intSrc2(op, imm)) {
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
		addr := m.intAt(op.src1) + imm
		var tagByte byte
		if tg := m.Tags[op.src2]; tg.Set {
			tagByte = byte(tg.Kind)
		}
		if f := m.Mem.WriteTagged(addr, uint64(m.rawAt(op.src2)), tagByte); f.Failed() {
			return signal(int64(in.PC), f.Kind), nil
		}
		return event{}, nil

	case ir.RestTR:
		m.buf.flushConfirmed(m.Mem)
		addr := m.intAt(op.src1) + imm
		v, tagByte, f := m.Mem.ReadTagged(addr)
		if f.Failed() {
			return signal(int64(in.PC), f.Kind), nil
		}
		m.setRawAt(op.dest, int64(v))
		if tagByte != 0 {
			m.setTag(op.dest, Tag{Set: true, Kind: ir.ExcKind(tagByte)})
		} else {
			m.setTag(op.dest, Tag{})
		}
		m.setReady(op.dest, t+int64(op.lat))
		return event{}, nil
	}

	if m.boost != nil && op.flags&fSpec != 0 {
		if ir.BufferedStore(op.op) {
			return m.execBoostedStore(in, op, imm, t)
		}
		return m.execBoosted(in, op, imm, t)
	}
	if ir.BufferedStore(op.op) {
		return m.execStore(in, op, imm, t, usesTags)
	}
	return m.execValue(in, op, imm, t, usesTags), nil
}

// execValue implements Table 1 for register-writing instructions.
func (m *Machine) execValue(in *ir.Instr, op *opRec, imm, t int64, usesTags bool) event {
	if srcTag := m.firstTaggedSrc(op); usesTags && srcTag >= 0 {
		if op.flags&fSpec == 0 {
			// Table 1, spec=0 src-tag=1 rows: this instruction is the
			// sentinel for an earlier speculative exception: signal,
			// reporting the tagged source's data as the PC.
			return signal(m.rawAt(srcTag), m.Tags[srcTag].Kind)
		}
		// Exception propagation (Table 1, spec=1 src-tag=1 rows): the
		// destination's tag is set and the first tagged source's data (the
		// excepting PC) is copied through.
		tg := m.Tags[srcTag]
		m.stats.TagPropagations++
		if m.trace != nil {
			m.trace.FlowStep(m.rawAt(srcTag), traceSlot(in), t)
		}
		m.setRawAt(op.dest, m.rawAt(srcTag))
		m.setTag(op.dest, tg)
		m.setReady(op.dest, t+int64(op.lat))
		return event{}
	}
	val, exc := m.compute(op, m.rawAt(op.src1), m.rawAt(op.src2), imm)
	if exc != ir.ExcNone {
		return m.excepted(in, op, t, exc)
	}
	m.setRawAt(op.dest, val)
	m.setTag(op.dest, Tag{})
	m.setReady(op.dest, t+int64(op.lat))
	return event{}
}

// excepted applies Table 1's rows for an untagged register-writing
// instruction whose own computation raised exc.
func (m *Machine) excepted(in *ir.Instr, op *opRec, t int64, exc ir.ExcKind) event {
	if op.flags&fSpec == 0 {
		return signal(int64(in.PC), exc) // spec=0: signal precisely
	}
	if m.usesTags {
		// Table 1, spec=1 row: tag set, data = PC of I, no signal.
		m.stats.TagSets++
		if m.trace != nil {
			m.trace.FlowStart(int64(in.PC), traceSlot(in), t)
		}
		m.setRawAt(op.dest, int64(in.PC))
		m.setTag(op.dest, Tag{Set: true, Kind: exc})
	} else {
		// General percolation (§2.4): the silent version writes a garbage
		// value and the exception is ignored.
		m.setRawAt(op.dest, GarbageValue)
	}
	m.setReady(op.dest, t+int64(op.lat))
	return event{}
}

// execStore implements Table 2: insertion of a store into the store buffer.
func (m *Machine) execStore(in *ir.Instr, op *opRec, imm, t int64, usesTags bool) (event, error) {
	srcTag := int8(-1)
	if usesTags {
		srcTag = m.firstTaggedSrc(op)
	}
	addr := m.intAt(op.src1) + imm
	size := ir.MemSize(op.op)
	data := uint64(m.rawAt(op.src2))
	fault := m.Mem.Check(addr, size)

	if op.flags&fSpec == 0 {
		if srcTag >= 0 {
			// Table 2 rows 010/011: the store is the sentinel.
			return signal(m.rawAt(srcTag), m.Tags[srcTag].Kind), nil
		}
		if fault.Failed() {
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
	case fault.Failed():
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
// instruction on its source registers' raw bits a and b (0 for an absent
// operand) and immediate imm, returning the raw result bits and any
// exception.
func (m *Machine) compute(op *opRec, a, b, imm int64) (int64, ir.ExcKind) {
	src2 := b
	if op.flags&fImm != 0 {
		src2 = imm
	}
	switch op.op {
	case ir.Li:
		return imm, ir.ExcNone
	case ir.Mov:
		return a, ir.ExcNone
	case ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Slt:
		return ir.IntALUOp(op.op, a, src2), ir.ExcNone
	case ir.Div, ir.Rem:
		return ir.IntDivOp(op.op, a, src2)
	case ir.Ld, ir.Ldb, ir.Fld:
		v, flt := m.buf.loadOverlay(a+imm, ir.MemSize(op.op), m.Mem)
		return int64(v), flt.Kind
	case ir.Fadd, ir.Fsub, ir.Fmul, ir.Fdiv:
		v, exc := ir.FPOp(op.op, fp(a), fp(b))
		return int64(math.Float64bits(v)), exc
	case ir.Fmov, ir.Fneg, ir.Fabs:
		v := ir.FPUnOp(op.op, fp(a))
		return int64(math.Float64bits(v)), ir.ExcNone
	case ir.Cvif:
		return int64(math.Float64bits(float64(a))), ir.ExcNone
	case ir.Cvfi:
		return ir.CvfiOp(fp(a))
	case ir.Feq, ir.Flt, ir.Fle:
		return ir.FPCmpOp(op.op, fp(a), fp(b))
	default:
		panic(fmt.Sprintf("sim: compute on %v", op.op))
	}
}

// fp reinterprets raw register bits as a float64.
func fp(raw int64) float64 { return math.Float64frombits(uint64(raw)) }
