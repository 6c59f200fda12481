// Package sim is the execution-driven simulator for scheduled MIR programs.
// It models the paper's machine: an in-order VLIW/superscalar with CRAY-1
// style scoreboard interlocks and deterministic latencies (Table 3), an
// exception-tagged register file implementing the sentinel semantics of
// Table 1, and a store buffer with probationary entries implementing Table 2
// for speculative stores.
//
// Instructions execute in schedule order with immediate architectural
// effect; the scoreboard provides timing (stalls), and a taken branch
// nullifies all younger instructions, so a correctly scheduled program
// produces exactly the results of the sequential reference interpreter.
package sim

import (
	"fmt"
	"math"

	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
)

// GarbageValue is the deterministic "garbage" written by a silent (general
// percolation) speculative instruction that caused an exception (§2.4).
const GarbageValue = int64(-0x0BAD0BAD0BAD0BAD)

// Tag is one register's exception tag. The minimum tag is a single bit; we
// carry the exception kind as well, which the paper notes is "useful to
// indicate the type of exception to assist in debugging" (§3.2 fn. 3).
type Tag struct {
	Set  bool
	Kind ir.ExcKind
}

// Exception describes a signalled (architecturally visible) exception.
type Exception struct {
	// ReportedPC is the PC of the instruction reported as the cause: for
	// sentinel-detected exceptions this is the PC recovered from the tagged
	// register's data field.
	ReportedPC int
	// ByPC is the PC of the instruction that signalled (the sentinel, or
	// the excepting instruction itself when non-speculative).
	ByPC  int
	Kind  ir.ExcKind
	Cycle int64
}

func (e Exception) String() string {
	return fmt.Sprintf("%v: pc %d (signalled by pc %d, cycle %d)",
		e.Kind, e.ReportedPC, e.ByPC, e.Cycle)
}

// Handler decides what happens on a signalled exception. Returning true
// asks the machine to recover: re-execution restarts at the reported PC
// (§3.7). Returning false aborts the run with the exception as error.
type Handler func(exc Exception, m *Machine) bool

// Options configures a simulation.
type Options struct {
	// MaxInstrs bounds dynamic instructions (default 200M).
	MaxInstrs int64
	// Handler is consulted on signalled exceptions; nil aborts.
	Handler Handler
	// Trace, when non-nil, receives one Chrome trace-event slice per issued
	// instruction (a track per issue slot), store-buffer occupancy samples,
	// and flow events linking each speculative exception to the sentinel
	// that signals it. Every hook is behind a nil check: a nil Trace costs
	// one pointer compare per instruction.
	Trace *obs.Tracer
	// Index is an optional precomputed ProgIndex for the program being run
	// (NewProgIndex). Callers that simulate the same scheduled program many
	// times should build it once and share it; when nil (or built for a
	// different program), Run constructs its own, exactly once per call.
	Index *ProgIndex
	// Pred is an optional prebuilt predictor (NewPredictor) for the
	// machine's frontend, built against the same program as Index. Callers
	// that simulate the same program many times supply one to keep the
	// steady state allocation-free; Run Resets it before use. When nil and
	// the machine selects a non-perfect frontend, Run builds one. Ignored
	// (never consulted) under PredPerfect.
	Pred Predictor
}

// Result is the outcome of a simulated run.
type Result struct {
	Cycles int64
	Instrs int64
	// Stalls aggregates interlock and store-buffer stall cycles; Stats
	// carries the per-cause breakdown (Stalls == Stats.Stalls()).
	Stalls     int64
	Out        []int64
	MemSum     uint64
	Exceptions []Exception // signalled exceptions that were recovered
	// Stats is the per-run observability breakdown: stall causes,
	// speculation and sentinel activity, occupancy high-water marks, and
	// the dynamic opcode mix.
	Stats obs.SimStats
}

// Machine is the simulated processor state.
type Machine struct {
	md   machine.Desc
	Mem  *mem.Memory
	Int  [ir.NumIntRegs]int64
	FP   [ir.NumFPRegs]float64
	Tags [ir.NumIntRegs + ir.NumFPRegs]Tag

	readyAt  [ir.NumIntRegs + ir.NumFPRegs]int64
	buf      *storeBuffer
	boost    *shadowFile // shadow register files (boosting model only)
	usesTags bool        // md.Model.UsesTags(), hoisted out of exec
	out      []int64

	instrs int64
	stats  obs.SimStats
	trace  *obs.Tracer // nil unless Options.Trace was set
}

// traceSlot maps an instruction to its trace track: its issue slot, or 0
// for unscheduled programs (Slot < 0).
func traceSlot(in *ir.Instr) int {
	if in.Slot < 0 {
		return 0
	}
	return in.Slot
}

// Raw reads a register's data field as raw bits (the data field carries the
// excepting PC after a speculative exception, for either register file).
func (m *Machine) Raw(r ir.Reg) int64 {
	if r.Class == ir.IntClass {
		return m.Int[r.N]
	}
	return int64(math.Float64bits(m.FP[r.N]))
}

// SetRaw writes a register's data field as raw bits. Writes to r0 are
// discarded (hardwired zero).
func (m *Machine) SetRaw(r ir.Reg, v int64) {
	if r.Class == ir.IntClass {
		if r.N != 0 {
			m.Int[r.N] = v
		}
		return
	}
	m.FP[r.N] = math.Float64frombits(uint64(v))
}

// rawAt is Raw for the register with dense index r (ir.Reg.Index).
func (m *Machine) rawAt(r int8) int64 {
	if r < ir.NumIntRegs {
		return m.Int[r]
	}
	return int64(math.Float64bits(m.FP[r-ir.NumIntRegs]))
}

// setRawAt is SetRaw for the register with dense index r (-1, no register
// or r0, is ignored).
func (m *Machine) setRawAt(r int8, v int64) {
	switch {
	case r >= ir.NumIntRegs:
		m.FP[r-ir.NumIntRegs] = math.Float64frombits(uint64(v))
	case r >= 0:
		m.Int[r] = v
	}
}

// intAt reads the integer register numbered like the operand with dense
// index r, whatever its class: address, comparison and runtime-call
// operands read the integer file by register number, as the reference
// interpreter does. NumIntRegs is a power of two, so the mask is the
// register number.
func (m *Machine) intAt(r int8) int64 { return m.Int[r&(ir.NumIntRegs-1)] }

// intSrc2 is an integer op's or a branch's second operand: Src2 read by
// register number, or the immediate when the record has no Src2.
func (m *Machine) intSrc2(op *opRec, imm int64) int64 {
	if op.flags&fImm != 0 {
		return imm
	}
	return m.intAt(op.src2)
}

// setTag sets or clears the exception tag of the register with dense index
// r (-1, no register or r0, is ignored).
func (m *Machine) setTag(r int8, t Tag) {
	if r >= 0 {
		m.Tags[r] = t
	}
}

// firstTaggedSrc returns the dense index of the first source operand whose
// exception tag is set (Table 1: "the first source operand of I whose
// exception tag is set"), or -1.
func (m *Machine) firstTaggedSrc(op *opRec) int8 {
	if m.Tags[op.src1].Set {
		return op.src1
	}
	if m.Tags[op.src2].Set {
		return op.src2
	}
	return -1
}

type abort struct {
	exc Exception
}

func (a *abort) Error() string { return "unhandled exception: " + a.exc.String() }

// Unhandled extracts the exception from an abort error, if any.
func Unhandled(err error) (Exception, bool) {
	if a, ok := err.(*abort); ok {
		return a.exc, true
	}
	return Exception{}, false
}

// boostMachine is a boosting-model Machine allocated together with its
// shadow file, so the shadow state costs a boosting Run no allocation and
// every other model no memory.
type boostMachine struct {
	Machine
	shadow shadowFile
}

// newMachine allocates a Machine for md, with an empty shadow file under
// the boosting model.
func newMachine(md machine.Desc) *Machine {
	if md.Model != machine.Boosting {
		return &Machine{md: md}
	}
	bm := &boostMachine{Machine: Machine{md: md}}
	bm.shadow.init(md.BoostLevels)
	bm.boost = &bm.shadow
	return &bm.Machine
}

// pcQueueSize is the depth of §3.2's PC history queue: enough to cover the
// longest instruction latency (10 cycles in Table 3) at any issue width the
// paper studies. The simulator detects every exception at issue, knowing
// the instruction's PC, so the queue itself reduces to its occupancy.
const pcQueueSize = 32

// Run simulates the scheduled program p on machine md with the given data
// memory (mutated in place). The program must be laid out (Layout).
func Run(p *prog.Program, md machine.Desc, memory *mem.Memory, opts Options) (*Result, error) {
	if err := md.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxInstrs == 0 {
		opts.MaxInstrs = 200_000_000
	}
	m := newMachine(md)
	m.Mem = memory
	m.buf = newStoreBuffer(md.StoreBuffer)
	m.usesTags = md.Model.UsesTags()
	m.trace = opts.Trace
	m.out = make([]int64, 0, 32)
	res := &Result{}
	if opts.Handler != nil {
		res.Exceptions = make([]Exception, 0, 8)
	}

	// The index holds every instruction's operand record, for the issue
	// path, and the positions and targets control transfers and recovery
	// restarts need. It is built exactly once per program: either by the
	// caller (shared across runs via Options.Index) or here, up front.
	idx := opts.Index
	if idx == nil || idx.p != p {
		idx = NewProgIndex(p)
	}

	// The branch-prediction frontend. Under PredPerfect (the classic,
	// default machine) pred stays nil and every predictor branch below is a
	// single never-taken comparison — the oracle timing is untouched. The
	// variable fetch-rate model: the first issue cycle after a frontend
	// redirect runs at half width (throttleT marks that cycle; overflow
	// slips the stream one cycle into FetchThrottleStalls).
	var pred Predictor
	fetchBudget := 0
	if md.Predictor != machine.PredPerfect {
		pred = opts.Pred
		if pred == nil {
			pred = NewPredictor(md, idx) // built in its initial state
		} else {
			pred.Reset()
		}
		fetchBudget = max(1, md.IssueWidth/2)
	}
	throttleT := int64(-1)
	throttleLeft := 0

	// Executions are counted per block visit, not per instruction: counts
	// is a difference array over idx.ops (a visit running ops [s, e) adds 1
	// at s and subtracts 1 at e), folded into Instrs, OpMix and SpecOps by
	// finishResult.
	counts := make([]int64, len(idx.ops)+1)
	// An op marked fFast runs inline unless it is boosted (it would write
	// the shadow file) or a source is tagged (Table 1 propagation or signal).
	fastMask := fFast
	if m.boost != nil {
		fastMask |= fSpec
	}

	now := int64(0)
	bi := p.Index(p.Entry)
	start := 0 // instruction index to start at within the block (recovery)
	for bi >= 0 && bi < len(p.Blocks) {
		b := p.Blocks[bi]
		base := int(idx.opsAt[bi])
		ops := idx.ops[base:idx.opsAt[bi+1]]
		blockStart := now
		if start > 0 && start < len(ops) {
			// Restarting mid-block: align the schedule so the restart
			// instruction issues now.
			blockStart = now - int64(b.Instrs[start].Cycle)
		}
		// The instruction budget is checked once per visit: the visit is cut
		// where the budget runs out, and reaching the cut is the error.
		end := len(ops)
		if rem := max(opts.MaxInstrs-m.instrs, 0); int64(end-start) > rem {
			end = start + int(rem)
		}
		redirect := -1     // next block index when a transfer happens
		redirectStart := 0 // instruction index within redirect target
		halted := false
		last := now
		stop := end // one past the last instruction this visit executes

		for i := start; i < end; i++ {
			op := &ops[i]
			rel, imm := int(op.cycle), int64(op.imm)
			if op.flags&fWide != 0 {
				in := b.Instrs[i]
				rel, imm = in.Cycle, in.Imm
			}
			// Issue timing: scheduled slot adjusted for accumulated drift,
			// delayed by scoreboard interlocks on source operands (in-order:
			// never earlier than an older instruction). An unscheduled
			// program (Cycle < 0) degenerates to one instruction per cycle.
			if rel < 0 {
				rel = i
			}
			tSched := blockStart + int64(rel)
			t := max(tSched, last, m.readyAt[op.src1], m.readyAt[op.src2])
			if t > tSched {
				m.stats.InterlockStalls += t - tSched
				blockStart += t - tSched // in-order: the whole stream slips
			}
			if t == throttleT {
				// Half-width fetch cycle right after a redirect: once the
				// reduced budget is spent, the rest of the stream slips one
				// cycle while fetch refills.
				if throttleLeft > 0 {
					throttleLeft--
				} else {
					t++
					blockStart++
					m.stats.FetchThrottleStalls++
					throttleT = -1
				}
			}
			last = t

			if m.trace != nil {
				in := b.Instrs[i]
				m.trace.Slice(traceSlot(in), in.Op.String(), t,
					int64(op.lat), in.PC, in.Spec)
			}

			untagged := !m.Tags[op.src1].Set && !m.Tags[op.src2].Set
			branch := ir.IsBranch(op.op)
			var ev event
			switch {
			case op.flags&fastMask == fFast && untagged:
				// The inline path: Table 1's untagged rows, speculative or
				// not. A value clears the destination's tag; a load's fault
				// takes the exception rows.
				var v int64
				exc := ir.ExcNone
				switch op.op {
				case ir.Li:
					v = imm
				case ir.Mov:
					v = m.intAt(op.src1)
				case ir.Ld, ir.Ldb, ir.Fld:
					raw, f := m.buf.loadOverlay(m.rawAt(op.src1)+imm, ir.MemSize(op.op), m.Mem)
					if v = int64(raw); f.Failed() {
						exc = f.Kind
					}
				default:
					v = ir.IntALUOp(op.op, m.intAt(op.src1), m.intSrc2(op, imm))
				}
				if exc == ir.ExcNone {
					if d := op.dest; d >= 0 {
						m.setRawAt(d, v)
						m.Tags[d] = Tag{}
						m.readyAt[d] = t + int64(op.lat)
					}
					continue
				}
				ev = m.excepted(b.Instrs[i], op, t, exc)
			case branch && untagged && m.boost == nil:
				// A conditional branch resolves inline unless a source is
				// tagged (it is the sentinel) or boosting must commit or
				// discard shadow state.
				if ir.CondHolds(op.op, m.intAt(op.src1), m.intSrc2(op, imm)) {
					ev.flow = flowTaken
				}
			default:
				var err error
				if ev, err = m.exec(b.Instrs[i], op, imm, t); err != nil {
					res.Cycles = t
					return res, err
				}
			}
			if ev.stall > 0 {
				m.stats.StoreBufferStalls += ev.stall
				blockStart += ev.stall
				last = t + ev.stall
			}
			if ev.signalled() {
				in := b.Instrs[i]
				m.stats.SentinelSignals++
				if op.op == ir.Check {
					m.stats.CheckFires++
				}
				if m.trace != nil {
					m.trace.FlowEnd(int64(ev.reportPC), traceSlot(in), t)
				}
				exc := Exception{ReportedPC: ev.reportPC, ByPC: in.PC, Kind: ev.kind, Cycle: t}
				if opts.Handler == nil || !opts.Handler(exc, m) {
					res.Cycles = t
					m.countVisit(counts, base+start, base+i+1)
					finishResult(res, m, idx.ops, counts)
					return res, &abort{exc}
				}
				res.Exceptions = append(res.Exceptions, exc)
				// Recovery: re-execution restarts at the reported PC
				// (repair happened in the handler), §3.7.
				rp, ok := idx.lookup(exc.ReportedPC)
				if !ok {
					res.Cycles = t
					return res, fmt.Errorf("sim: recovery target pc %d not found", exc.ReportedPC)
				}
				redirect, redirectStart = int(rp.block), int(rp.idx)
				now = t + 1
				stop = i + 1
				break
			}
			// Consult the branch-prediction frontend for every resolved
			// conditional branch (signalled branches recover instead of
			// resolving and are not predicted). mispredicted stays false
			// under the perfect frontend, so everything below degenerates
			// to the classic timing.
			mispredicted := false
			if pred != nil && branch {
				bid := op.aux
				predTaken := pred.Predict(bid)
				pred.Update(bid, ev.taken())
				m.stats.PredictedBranches++
				if predTaken != ev.taken() {
					mispredicted = true
					m.stats.Mispredicts++
					m.stats.MispredictCycles += int64(m.md.MispredictPenalty)
				}
			}
			if ev.taken() {
				// Taken control transfer: younger instructions (same cycle,
				// later slots, and all later cycles) are nullified simply by
				// leaving the block loop. A taken conditional branch is a
				// (compile-time) branch misprediction: cancel probationary
				// store-buffer entries (§4.1).
				target := op.aux
				if branch {
					m.buf.cancelProbationary()
					target = idx.brTarget[op.aux]
				}
				m.stats.BranchRedirects++
				penalty := int64(machine.BranchTakenPenalty)
				if mispredicted {
					// Predicted not-taken, taken: the full mispredict
					// redirect replaces the fixed taken-branch bubble.
					penalty = int64(m.md.MispredictPenalty)
				}
				m.stats.RedirectCycles += penalty
				redirect = int(target)
				if target < 0 {
					redirect = p.Index(b.Instrs[i].Target)
				}
				now = t + 1 + penalty
				if pred != nil {
					throttleT = now
					throttleLeft = fetchBudget
				}
				stop = i + 1
				break
			}
			if mispredicted {
				// Predicted taken, fell through: wrong-path fetch at the
				// target is squashed and fetch refills from the fall-through
				// path, slipping the whole in-order stream.
				p := int64(m.md.MispredictPenalty)
				blockStart += p
				last = t + p
				throttleT = last
				throttleLeft = fetchBudget
			}
			if op.op == ir.Halt {
				halted = true
				res.Cycles = t
				stop = i + 1
				break
			}
		}
		m.countVisit(counts, base+start, base+stop)

		if halted {
			break
		}
		if redirect >= 0 {
			bi = redirect
			start = redirectStart
			continue
		}
		if stop < len(ops) {
			return res, fmt.Errorf("sim: instruction budget exceeded (%d)", opts.MaxInstrs)
		}
		// Fall through to the next block.
		now = last + 1
		bi++
		start = 0
		if bi >= len(p.Blocks) {
			return res, fmt.Errorf("sim: fell off the end of the program")
		}
	}

	// Drain the store buffer and wait for in-flight results.
	drain := m.buf.drainAll(res.Cycles, m.Mem)
	if drain > res.Cycles {
		res.Cycles = drain
	}
	for _, ra := range m.readyAt {
		if ra > res.Cycles {
			res.Cycles = ra
		}
	}
	finishResult(res, m, idx.ops, counts)
	return res, nil
}

// countVisit records a block visit that executed ops [from, to) of the
// index.
func (m *Machine) countVisit(counts []int64, from, to int) {
	if to > from {
		counts[from]++
		counts[to]--
		m.instrs += int64(to - from)
	}
}

// finishResult folds the per-visit execution counts into the opcode mix and
// the speculative-op count, and fills res from the machine.
func finishResult(res *Result, m *Machine, ops []opRec, counts []int64) {
	var n int64
	for k := range ops {
		if n += counts[k]; n != 0 {
			m.stats.OpMix[ops[k].op] += n
			if ops[k].flags&fSpec != 0 {
				m.stats.SpecOps += n
			}
		}
	}
	m.stats.PCQueueHighWater = min(pcQueueSize, m.instrs)
	res.Instrs = m.instrs
	res.Stats = m.stats
	res.Stalls = m.stats.Stalls()
	res.Out = m.out
	res.MemSum = m.Mem.Checksum()
}
