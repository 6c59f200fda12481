package eval

// The provenance wall. alias.Provenance keeps its per-register facts in
// dense tables indexed by register slot; the map-keyed analysis it replaced
// survives here as the reference, and both must assign every physical
// register the same root on every workload kernel and every checked-in
// differential-fuzz input: raw, superblock-formed, and scheduled.

import (
	"os"
	"path/filepath"
	"testing"

	"sentinel/internal/alias"
	"sentinel/internal/core"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

type refState uint8

const (
	refUnset refState = iota
	refRooted
	refUnknown
)

// refProvenance is the map-keyed provenance analysis, kept as the oracle.
type refProvenance struct {
	st   map[ir.Reg]refState
	root map[ir.Reg]int64
}

func refAnalyze(p *prog.Program) *refProvenance {
	pv := &refProvenance{st: map[ir.Reg]refState{}, root: map[ir.Reg]int64{}}
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

func (pv *refProvenance) transfer(in *ir.Instr) bool {
	d, ok := in.Def()
	if !ok {
		return false
	}
	switch {
	case in.Op == ir.Li:
		return pv.joinRoot(d, in.Imm)
	case in.Op == ir.Mov || (in.Op == ir.Add || in.Op == ir.Sub) && !in.Src2.Valid():
		return pv.joinFrom(d, in.Src1)
	case in.Op == ir.Add && in.Src2.Valid():
		a, b := pv.st[in.Src1], pv.st[in.Src2]
		switch {
		case a == refRooted && b == refUnknown || in.Src2.IsZero():
			return pv.joinFrom(d, in.Src1)
		case b == refRooted && a == refUnknown || in.Src1.IsZero():
			return pv.joinFrom(d, in.Src2)
		case a == refUnset || b == refUnset:
			return false
		default:
			return pv.joinUnknown(d)
		}
	default:
		return pv.joinUnknown(d)
	}
}

func (pv *refProvenance) joinRoot(d ir.Reg, id int64) bool {
	switch pv.st[d] {
	case refUnset:
		pv.st[d] = refRooted
		pv.root[d] = id
		return true
	case refRooted:
		if pv.root[d] != id {
			pv.st[d] = refUnknown
			return true
		}
	}
	return false
}

func (pv *refProvenance) joinFrom(d, s ir.Reg) bool {
	if s.IsZero() {
		return pv.joinRoot(d, 0)
	}
	switch pv.st[s] {
	case refUnset:
		return false
	case refRooted:
		return pv.joinRoot(d, pv.root[s])
	default:
		return pv.joinUnknown(d)
	}
}

func (pv *refProvenance) joinUnknown(d ir.Reg) bool {
	if pv.st[d] != refUnknown {
		pv.st[d] = refUnknown
		return true
	}
	return false
}

func (pv *refProvenance) Of(r ir.Reg) alias.Root {
	if pv.st[r] == refRooted {
		return alias.Root{Known: true, ID: pv.root[r]}
	}
	return alias.Root{}
}

// checkProvenance compares the dense and reference analyses of p, and of
// its superblock-formed and scheduled forms, on all physical registers. It
// returns how many register facts were known, so callers can tell the
// comparison was not vacuous.
func checkProvenance(t *testing.T, what string, p *prog.Program, profile *prog.Profile) int {
	t.Helper()
	f := superblock.Form(p, profile, superblock.Options{})
	f.Layout()
	s, _, err := core.Schedule(f, machine.Base(8, machine.Sentinel))
	if err != nil {
		t.Fatalf("%s: schedule: %v", what, err)
	}
	known := 0
	for _, c := range []struct {
		form string
		p    *prog.Program
	}{{"raw", p}, {"formed", f}, {"scheduled", s}} {
		got, want := alias.Analyze(c.p), refAnalyze(c.p)
		for i := 0; i < ir.NumIntRegs+ir.NumFPRegs; i++ {
			var r ir.Reg
			if i < ir.NumIntRegs {
				r = ir.R(i)
			} else {
				r = ir.F(i - ir.NumIntRegs)
			}
			g, w := got.Of(r), want.Of(r)
			if g != w {
				t.Fatalf("%s %s: Of(%v) = %+v, reference %+v", what, c.form, r, g, w)
			}
			if g.Known {
				known++
			}
		}
	}
	return known
}

func TestProvenanceMatchesMapReference(t *testing.T) {
	known := 0
	for _, w := range workload.All() {
		p, m := w.Build()
		p.Layout()
		ref, err := prog.Run(p, m, prog.Options{Collect: true})
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		known += checkProvenance(t, w.Name, p, ref.Profile)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzScheduleDifferential")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	for _, e := range entries {
		p, m := genProgram(readCorpusBytes(t, filepath.Join(dir, e.Name())))
		if p == nil {
			t.Fatalf("%s: generator rejected the input", e.Name())
		}
		p.Layout()
		prof, _ := prog.Run(p, m.Clone(), prog.Options{Collect: true, MaxInstrs: 100_000})
		known += checkProvenance(t, e.Name(), p, prof.Profile)
	}
	if known == 0 {
		t.Fatal("no register had a known root anywhere: the comparison is vacuous")
	}
}
