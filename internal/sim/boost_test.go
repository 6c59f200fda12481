package sim

import (
	"math/rand/v2"
	"testing"

	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
)

func newShadowFile(levels int) *shadowFile {
	sf := &shadowFile{}
	sf.init(levels)
	return sf
}

func TestShadowFileReadThrough(t *testing.T) {
	sf := newShadowFile(3)
	sf.write(2, ir.R(5).Index(), 42, ir.ExcNone, 0)
	// Visible at levels >= 2, invisible below.
	if v, ok := sf.read(3, ir.R(5).Index()); !ok || v.raw != 42 {
		t.Errorf("read(3) = %+v, %v", v, ok)
	}
	if v, ok := sf.read(2, ir.R(5).Index()); !ok || v.raw != 42 {
		t.Errorf("read(2) = %+v, %v", v, ok)
	}
	if _, ok := sf.read(1, ir.R(5).Index()); ok {
		t.Error("level-1 read must miss a level-2 value")
	}
	// Higher applicable levels are later in program order and win; lower
	// levels serve readers boosted above fewer branches.
	sf.write(1, ir.R(5).Index(), 7, ir.ExcNone, 0)
	if v, _ := sf.read(3, ir.R(5).Index()); v.raw != 42 {
		t.Errorf("highest applicable level must win, got %d", v.raw)
	}
	if v, _ := sf.read(1, ir.R(5).Index()); v.raw != 7 {
		t.Errorf("level-1 reader must see the level-1 value, got %d", v.raw)
	}
}

func TestShadowCommitShiftsLevels(t *testing.T) {
	sf := newShadowFile(2)
	sf.write(1, ir.R(1).Index(), 10, ir.ExcNone, 0)
	sf.write(2, ir.R(2).Index(), 20, ir.ExcNone, 0)
	committed := map[int]int64{}
	sf.commit(func(idx int, v shadowVal) bool {
		committed[idx] = v.raw
		return true
	})
	if committed[ir.R(1).Index()] != 10 || len(committed) != 1 {
		t.Errorf("first commit = %v, want only r1=10", committed)
	}
	// r2 moved from level 2 to level 1.
	if v, ok := sf.read(1, ir.R(2).Index()); !ok || v.raw != 20 {
		t.Errorf("after shift, read(1, r2) = %+v, %v", v, ok)
	}
	committed = map[int]int64{}
	sf.commit(func(idx int, v shadowVal) bool {
		committed[idx] = v.raw
		return true
	})
	if committed[ir.R(2).Index()] != 20 {
		t.Errorf("second commit = %v, want r2=20", committed)
	}
}

func TestShadowDiscard(t *testing.T) {
	sf := newShadowFile(2)
	sf.write(1, ir.R(1).Index(), 1, ir.ExcNone, 0)
	sf.write(2, ir.R(2).Index(), 2, ir.ExcNone, 0)
	sf.discard()
	if _, ok := sf.read(2, ir.R(1).Index()); ok {
		t.Error("discard must clear all levels")
	}
}

// mkBoost builds a hand-scheduled boosted program:
//
//	entry: r2 = base (maybe invalid)
//	main:  ld r1, 0(r2) <boost 1>   (hoisted above the branch)
//	       add r3, r1, 1 <boost 1>
//	       bne r4, 0, skip          (taken when r4 != 0)
//	       jsr putint, r3
//	       halt
//	skip:  jsr putint, r0; halt
func mkBoost(base int64, r4 int64) *prog.Program {
	mk := func(in *ir.Instr, cyc, slot, boost int) *ir.Instr {
		in.Cycle, in.Slot = cyc, slot
		if boost > 0 {
			in.Spec = true
			in.BoostLevel = boost
		}
		return in
	}
	p := prog.NewProgram()
	p.AddBlock("entry",
		mk(ir.LI(ir.R(2), base), 0, 0, 0),
		mk(ir.LI(ir.R(4), r4), 0, 1, 0),
	)
	p.AddBlock("main",
		mk(ir.LOAD(ir.Ld, ir.R(1), ir.R(2), 0), 0, 0, 1),
		mk(ir.ALUI(ir.Add, ir.R(3), ir.R(1), 1), 2, 0, 1),
		mk(ir.BRI(ir.Bne, ir.R(4), 0, "skip"), 3, 0, 0),
		mk(ir.JSR("putint", ir.R(3)), 3, 1, 0),
		mk(ir.HALT(), 4, 0, 0),
	)
	p.AddBlock("skip", ir.JSR("putint", ir.R(0)), ir.HALT())
	p.Layout()
	return p
}

func TestBoostCommitDeliversValue(t *testing.T) {
	p := mkBoost(0x1000, 0) // branch not taken: boosted chain commits
	m := mem.New()
	m.Map("d", 0x1000, 8)
	m.Write(0x1000, 8, 41)
	res, err := Run(p, machine.Base(8, machine.Boosting), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 1 || res.Out[0] != 42 {
		t.Errorf("out = %v, want [42]", res.Out)
	}
}

func TestBoostDiscardOnTaken(t *testing.T) {
	// Branch taken: the boosted load's (faulting!) result is discarded; the
	// architectural r3 stays 0 and no exception signals.
	p := mkBoost(0x9000, 1) // unmapped base AND taken branch
	res, err := Run(p, machine.Base(8, machine.Boosting), mem.New(), Options{})
	if err != nil {
		t.Fatalf("boosted fault on mispredicted path must be ignored: %v", err)
	}
	if len(res.Out) != 1 || res.Out[0] != 0 {
		t.Errorf("out = %v, want [0] (skip path)", res.Out)
	}
}

func TestBoostExceptionSignalsAtCommit(t *testing.T) {
	// Branch not taken: the boosted load's fault must signal at the branch
	// (the commit point), reporting the LOAD's pc.
	p := mkBoost(0x9000, 0)
	_, err := Run(p, machine.Base(8, machine.Boosting), mem.New(), Options{})
	exc, ok := Unhandled(err)
	if !ok {
		t.Fatalf("err = %v, want exception", err)
	}
	if exc.ReportedPC != 2 {
		t.Errorf("reported pc = %d, want 2 (the boosted load)", exc.ReportedPC)
	}
	// Signalled by the committing branch.
	in, _, _ := p.InstrAt(exc.ByPC)
	if in == nil || !ir.IsBranch(in.Op) {
		t.Errorf("signalled by %v, want the committing branch", in)
	}
}

func TestBoostedStoreCommitAndCancel(t *testing.T) {
	mk := func(in *ir.Instr, cyc, slot, boost int) *ir.Instr {
		in.Cycle, in.Slot = cyc, slot
		if boost > 0 {
			in.Spec = true
			in.BoostLevel = boost
		}
		return in
	}
	build := func(taken int64) (*prog.Program, *mem.Memory) {
		p := prog.NewProgram()
		p.AddBlock("entry",
			mk(ir.LI(ir.R(2), 0x1000), 0, 0, 0),
			mk(ir.LI(ir.R(5), 77), 0, 1, 0),
			mk(ir.LI(ir.R(4), taken), 0, 2, 0),
		)
		p.AddBlock("main",
			mk(ir.STORE(ir.St, ir.R(2), 0, ir.R(5)), 0, 0, 1), // boosted store
			mk(ir.BRI(ir.Bne, ir.R(4), 0, "skip"), 1, 0, 0),
			mk(ir.HALT(), 2, 0, 0),
		)
		p.AddBlock("skip", ir.HALT())
		p.Layout()
		m := mem.New()
		m.Map("d", 0x1000, 8)
		return p, m
	}
	// Not taken: the shadow entry commits at the branch and drains.
	p, m := build(0)
	if _, err := Run(p, machine.Base(8, machine.Boosting), m, Options{}); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read(0x1000, 8); v != 77 {
		t.Errorf("committed store missing: %d", v)
	}
	// Taken: the shadow entry is cancelled.
	p2, m2 := build(1)
	if _, err := Run(p2, machine.Base(8, machine.Boosting), m2, Options{}); err != nil {
		t.Fatal(err)
	}
	if v, _ := m2.Read(0x1000, 8); v != 0 {
		t.Errorf("cancelled boosted store leaked: %d", v)
	}
}

func TestBoostedConsumerReadsShadow(t *testing.T) {
	// A boosted consumer at the same level must see the boosted producer's
	// shadow value, not the stale architectural one.
	mk := func(in *ir.Instr, cyc, slot, boost int) *ir.Instr {
		in.Cycle, in.Slot = cyc, slot
		if boost > 0 {
			in.Spec = true
			in.BoostLevel = boost
		}
		return in
	}
	p := prog.NewProgram()
	p.AddBlock("entry",
		mk(ir.LI(ir.R(1), 5), 0, 0, 0),
		mk(ir.LI(ir.R(4), 0), 0, 1, 0),
	)
	p.AddBlock("main",
		mk(ir.ALUI(ir.Add, ir.R(1), ir.R(1), 10), 0, 0, 1), // boosted: r1 = 15 (shadow)
		mk(ir.ALUI(ir.Mul, ir.R(3), ir.R(1), 2), 1, 0, 1),  // boosted: must read 15
		mk(ir.BRI(ir.Bne, ir.R(4), 0, "skip"), 2, 0, 0),
		mk(ir.JSR("putint", ir.R(3)), 2, 1, 0),
		mk(ir.JSR("putint", ir.R(1)), 2, 2, 0),
		mk(ir.HALT(), 3, 0, 0),
	)
	p.AddBlock("skip", ir.HALT())
	p.Layout()
	res, err := Run(p, machine.Base(8, machine.Boosting), mem.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Out) != 2 || res.Out[0] != 30 || res.Out[1] != 15 {
		t.Errorf("out = %v, want [30 15]", res.Out)
	}
}

// denseShadow is the reference shadow file: one full register file per
// level, scanned in register order on commit and shifted by copying whole
// levels — the straightforward model the sparse shadowFile must match.
type denseShadow struct {
	levels [][numRegs]struct {
		present bool
		v       shadowVal
	}
}

func (d *denseShadow) write(level, idx int, v shadowVal) {
	d.levels[level-1][idx].present, d.levels[level-1][idx].v = true, v
}

func (d *denseShadow) read(level, idx int) (shadowVal, bool) {
	for l := level; l >= 1; l-- {
		if e := d.levels[l-1][idx]; e.present {
			return e.v, true
		}
	}
	return shadowVal{}, false
}

func (d *denseShadow) commit(apply func(idx int, v shadowVal) bool) bool {
	for idx, e := range d.levels[0] {
		if e.present && !apply(idx, e.v) {
			return false
		}
	}
	copy(d.levels, d.levels[1:])
	clear(d.levels[len(d.levels)-1][:])
	return true
}

func (d *denseShadow) discard() {
	for i := range d.levels {
		clear(d.levels[i][:])
	}
}

// TestShadowFileMatchesDense drives the sparse shadow file and the dense
// reference through the same random write/read/commit/discard sequences:
// every read agrees, commits apply the same entries in ascending register
// order and abort at the same recorded exception, an aborted commit shifts
// nothing, and discard empties every level.
func TestShadowFileMatchesDense(t *testing.T) {
	ops := 20_000
	if testing.Short() {
		ops = 2_000
	}
	for levels := 1; levels <= 4; levels++ {
		r := rand.New(rand.NewPCG(uint64(levels), 99))
		sf := newShadowFile(levels)
		ref := &denseShadow{levels: make([][numRegs]struct {
			present bool
			v       shadowVal
		}, levels)}
		// A small register pool makes overwrites and cross-level shadowing
		// common; an occasional index anywhere in the file keeps both
		// bitmap words busy.
		pool := []int{0, 1, 5, 63, 64, 65, 100, 127}
		reg := func() int {
			if r.IntN(4) == 0 {
				return r.IntN(numRegs)
			}
			return pool[r.IntN(len(pool))]
		}
		sameState := func(step int, what string) {
			t.Helper()
			for l := 1; l <= levels; l++ {
				for idx := 0; idx < numRegs; idx++ {
					got, gok := sf.read(l, idx)
					want, wok := ref.read(l, idx)
					if got != want || gok != wok {
						t.Fatalf("levels %d step %d after %s: read(%d, %d) = %+v %v, dense %+v %v",
							levels, step, what, l, idx, got, gok, want, wok)
					}
				}
			}
		}
		type applied struct {
			idx int
			v   shadowVal
		}
		for i := 0; i < ops; i++ {
			switch k := r.IntN(10); {
			case k < 6:
				v := shadowVal{raw: r.Int64()}
				if r.IntN(8) == 0 {
					v.exc, v.excPC = ir.ExcPageFault, int64(i)
				}
				l, idx := 1+r.IntN(levels), reg()
				sf.write(l, idx, v.raw, v.exc, v.excPC)
				ref.write(l, idx, v)
			case k < 8:
				l, idx := 1+r.IntN(levels), reg()
				got, gok := sf.read(l, idx)
				want, wok := ref.read(l, idx)
				if got != want || gok != wok {
					t.Fatalf("levels %d step %d: read(%d, %d) = %+v %v, dense %+v %v",
						levels, i, l, idx, got, gok, want, wok)
				}
			case k < 9:
				var gotSeq, wantSeq []applied
				record := func(seq *[]applied) func(int, shadowVal) bool {
					return func(idx int, v shadowVal) bool {
						*seq = append(*seq, applied{idx, v})
						return v.exc == ir.ExcNone
					}
				}
				gok := sf.commit(record(&gotSeq))
				wok := ref.commit(record(&wantSeq))
				if gok != wok || len(gotSeq) != len(wantSeq) {
					t.Fatalf("levels %d step %d: commit = %v applying %v, dense %v applying %v",
						levels, i, gok, gotSeq, wok, wantSeq)
				}
				for j := range gotSeq {
					if gotSeq[j] != wantSeq[j] || (j > 0 && gotSeq[j].idx <= gotSeq[j-1].idx) {
						t.Fatalf("levels %d step %d: commit applied %v, want ascending %v",
							levels, i, gotSeq, wantSeq)
					}
				}
				sameState(i, "commit")
			default:
				sf.discard()
				ref.discard()
				sameState(i, "discard")
				for l := 1; l <= levels; l++ {
					for idx := 0; idx < numRegs; idx++ {
						if _, ok := sf.read(l, idx); ok {
							t.Fatalf("levels %d step %d: read(%d, %d) hit after discard", levels, i, l, idx)
						}
					}
				}
			}
		}
	}
}
