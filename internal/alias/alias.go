// Package alias implements the memory disambiguation the scheduler relies
// on to reorder memory operations — the stand-in for the object-level alias
// information the IMPACT C front end derives from the source language.
//
// Two analyses are provided:
//
//  1. Pointer provenance: a flow-insensitive fixpoint assigns each register
//     the set of "roots" (distinct LI base constants) its value can derive
//     from. References whose bases have different, known roots address
//     different objects and cannot alias. MIR programs must address an
//     object only through pointers derived from that object's defining LI
//     (the analogue of C's undefined behaviour for cross-object pointer
//     arithmetic).
//  2. Affine base tracking (in package depgraph): within a superblock,
//     redefinitions of a base register by a constant add keep references
//     comparable, so unrolled iterations' accesses disambiguate by offset.
package alias

import (
	"sentinel/internal/ir"
	"sentinel/internal/prog"
)

// Root describes what a register's value can point into.
type Root struct {
	// Known is false when the register may hold a pointer of unknown
	// origin (loaded from memory, computed from two registers, ...).
	Known bool
	// ID identifies the defining LI constant. Two known roots with
	// different IDs address disjoint objects.
	ID int64
}

// bottom (zero Root with Known=false) is "no information yet" internally;
// we distinguish it with a tri-state during the fixpoint.
type state uint8

const (
	unset state = iota
	rooted
	unknown
)

// numRegs is the number of physical register slots (ir.Reg.Index).
const numRegs = ir.NumIntRegs + ir.NumFPRegs

// Provenance holds the per-register analysis result in two dense tables
// indexed by register slot (ir.Reg.Index).
type Provenance struct {
	st   [numRegs]state
	root [numRegs]int64
}

// Analyze computes register provenance for the whole program by iterating
// the transfer functions to a fixpoint. The analysis is flow-insensitive
// (one fact per register), which is sound: any conflicting definition
// degrades to unknown.
func Analyze(p *prog.Program) *Provenance {
	pv := &Provenance{}
	for changed := true; changed; {
		changed = false
		for _, b := range p.Blocks {
			for _, in := range b.Instrs {
				if pv.transfer(in) {
					changed = true
				}
			}
		}
	}
	return pv
}

// stateOf returns r's analysis state; an absent operand is unset.
func (pv *Provenance) stateOf(r ir.Reg) state {
	if !r.Valid() {
		return unset
	}
	return pv.st[r.Index()]
}

func (pv *Provenance) transfer(in *ir.Instr) bool {
	d, ok := in.Def()
	if !ok {
		return false
	}
	switch {
	case in.Op == ir.Li:
		return pv.joinRoot(d, in.Imm)
	case in.Op == ir.Mov || (in.Op == ir.Add || in.Op == ir.Sub) && !in.Src2.Valid():
		// Copy or pointer arithmetic with a constant: propagate the source.
		return pv.joinFrom(d, in.Src1)
	case in.Op == ir.Add && in.Src2.Valid():
		// base + index: when exactly one operand has a known root, the
		// other is the scaled index (the a[i] pattern). Two known roots
		// would mean adding two pointers — degrade to unknown.
		a, b := pv.stateOf(in.Src1), pv.stateOf(in.Src2)
		switch {
		case a == rooted && b == unknown || in.Src2.IsZero():
			return pv.joinFrom(d, in.Src1)
		case b == rooted && a == unknown || in.Src1.IsZero():
			return pv.joinFrom(d, in.Src2)
		case a == unset || b == unset:
			return false // wait for more information
		default:
			return pv.joinUnknown(d)
		}
	default:
		return pv.joinUnknown(d)
	}
}

func (pv *Provenance) joinRoot(d ir.Reg, id int64) bool {
	i := d.Index()
	switch pv.st[i] {
	case unset:
		pv.st[i] = rooted
		pv.root[i] = id
		return true
	case rooted:
		if pv.root[i] != id {
			pv.st[i] = unknown
			return true
		}
	}
	return false
}

func (pv *Provenance) joinFrom(d, s ir.Reg) bool {
	if s.IsZero() {
		return pv.joinRoot(d, 0)
	}
	switch pv.stateOf(s) {
	case unset:
		return false // nothing known about the source yet
	case rooted:
		return pv.joinRoot(d, pv.root[s.Index()])
	default:
		return pv.joinUnknown(d)
	}
}

func (pv *Provenance) joinUnknown(d ir.Reg) bool {
	i := d.Index()
	if pv.st[i] != unknown {
		pv.st[i] = unknown
		return true
	}
	return false
}

// Of returns the provenance of a register.
func (pv *Provenance) Of(r ir.Reg) Root {
	if pv.stateOf(r) == rooted {
		return Root{Known: true, ID: pv.root[r.Index()]}
	}
	return Root{}
}

// Disjoint reports whether two base registers provably address different
// objects.
func (pv *Provenance) Disjoint(a, b ir.Reg) bool {
	ra, rb := pv.Of(a), pv.Of(b)
	return ra.Known && rb.Known && ra.ID != rb.ID
}
