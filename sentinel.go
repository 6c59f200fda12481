// Package sentinel is a from-scratch reproduction of "Sentinel Scheduling
// for VLIW and Superscalar Processors" (Mahlke, Chen, Hwu, Rau, Schlansker;
// ASPLOS 1992): a compiler and machine substrate for compiler-controlled
// speculative execution with accurate exception detection.
//
// The pipeline is:
//
//	program -> profile -> form superblocks -> Schedule -> Simulate
//
// Build MIR programs with the re-exported instruction constructors (R, F,
// LOAD, STORE, BR, ...), profile them on a training input (ProfileRun),
// compile them — Compile profiles, forms superblocks from the profile and
// schedules under one of the five speculation models (Restricted, General,
// Sentinel, SentinelStores, plus §2.3's Boosting) — and run the result on
// the cycle simulator, which implements the exception-tagged register file
// (Table 1 of the paper), the probationary store buffer (Table 2), and
// shadow register files for boosting.
package sentinel

import (
	"sentinel/internal/core"
	"sentinel/internal/eval"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
)

// Re-exported core types. Aliases keep the internal packages as the single
// source of truth while giving users one import.
type (
	// Program is an ordered list of labelled blocks of MIR instructions.
	Program = prog.Program
	// Block is one labelled (super)block.
	Block = prog.Block
	// Instr is one MIR instruction.
	Instr = ir.Instr
	// Reg names a machine register.
	Reg = ir.Reg
	// Op is a MIR opcode.
	Op = ir.Op
	// Machine describes the target processor configuration.
	Machine = machine.Desc
	// Model selects the speculative code-motion model.
	Model = machine.Model
	// Memory is the byte-addressable data memory image.
	Memory = mem.Memory
	// Profile is a dynamic execution profile.
	Profile = prog.Profile
	// SimResult is the outcome of a simulated run.
	SimResult = sim.Result
	// RefResult is the outcome of a reference (sequential) run.
	RefResult = prog.Result
	// Stats reports scheduling statistics (sentinels inserted, instructions
	// speculated, ...).
	Stats = core.Stats
	// Exception is a signalled exception with its reported cause.
	Exception = sim.Exception
	// SuperblockOptions tunes superblock formation.
	SuperblockOptions = superblock.Options
	// CPU is the simulated processor state, exposed to exception handlers.
	CPU = sim.Machine
	// Handler decides what happens on a signalled exception; return true to
	// recover (re-execution restarts at the reported PC).
	Handler = sim.Handler
	// Tag is one register's exception tag.
	Tag = sim.Tag
)

// Unhandled extracts the exception from a simulation abort error, if any.
func Unhandled(err error) (Exception, bool) { return sim.Unhandled(err) }

// The scheduling models of the paper (§2, §3, §4), including the
// instruction-boosting related work of §2.3.
const (
	Restricted     = machine.Restricted
	General        = machine.General
	Sentinel       = machine.Sentinel
	SentinelStores = machine.SentinelStores
	Boosting       = machine.Boosting
)

// NewProgram returns an empty program.
func NewProgram() *Program { return prog.NewProgram() }

// NewMemory returns an empty memory image.
func NewMemory() *Memory { return mem.New() }

// BaseMachine returns the paper's base processor (64+64 registers, 8-entry
// store buffer, Table 3 latencies) at the given issue width and model.
func BaseMachine(width int, model Model) Machine { return machine.Base(width, model) }

// ProfileRun lays p out, validates it, and executes it sequentially on (a
// clone of) the training memory, returning its execution profile together
// with the reference architectural result.
func ProfileRun(p *Program, m *Memory) (*RefResult, error) {
	_, ref, err := eval.Front(p, m, eval.FrontOptions{Reference: true})
	return ref, err
}

// Schedule list-schedules every block of p for the machine, applying the
// machine's speculation model: dependence-graph reduction, sentinel
// insertion for unprotected speculative instructions, confirm_store
// insertion for speculative stores, and the §3.5/§3.7 supporting
// transformations.
func Schedule(p *Program, md Machine) (*Program, Stats, error) {
	return core.Schedule(p, md)
}

// Simulate runs a scheduled program on the cycle simulator with the given
// memory (mutated in place).
func Simulate(p *Program, md Machine, m *Memory, opts sim.Options) (*SimResult, error) {
	return sim.Run(p, md, m, opts)
}

// SimOptions configures simulation (exception handler, instruction budget).
type SimOptions = sim.Options

// Compile is the full pipeline: profile on the training memory, form
// superblocks, and schedule for md. It returns the scheduled program and
// scheduling statistics; p itself is not modified.
func Compile(p *Program, train *Memory, md Machine, sbo SuperblockOptions) (*Program, Stats, error) {
	f, _, err := eval.Front(p.Clone(), train, eval.FrontOptions{Form: true, SBO: sbo})
	if err != nil {
		return nil, Stats{}, err
	}
	return core.ScheduleOwned(f, md)
}
