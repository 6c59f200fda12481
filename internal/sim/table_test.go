package sim

import (
	"testing"

	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
)

func testMachine(model machine.Model) *Machine {
	m := &Machine{
		md:  machine.Base(8, model),
		Mem: mem.New(),
		buf: newStoreBuffer(8),

		usesTags: model.UsesTags(),
	}
	m.Mem.Map("data", 0x1000, 64)
	return m
}

// exec1 executes one instruction, decoding its operands as ProgIndex does.
func (m *Machine) exec1(in *ir.Instr, t int64) (event, error) {
	op := decodeOp(in)
	return m.exec(in, &op, in.Imm, t)
}

// tag and setRegTag address a register's exception tag by name.
func (m *Machine) tag(r ir.Reg) Tag { return m.Tags[r.Index()] }

func (m *Machine) setRegTag(r ir.Reg, t Tag) { m.Tags[r.Index()] = t }

// TestTable1 drives every row of Table 1 (exception detection with sentinel
// scheduling) through the register-file semantics.
//
//	spec srcTag causesExc => destTag destData signal
func TestTable1(t *testing.T) {
	const specPC = 7 // pretend PC of an earlier speculative excepting instr

	// Helpers to build a machine with r2 pointing at valid or invalid
	// memory, and optionally r2 carrying a set exception tag.
	setup := func(validAddr, srcTagged bool) *Machine {
		m := testMachine(machine.Sentinel)
		if validAddr {
			m.Int[2] = 0x1000
		} else {
			m.Int[2] = 0xdead000
		}
		if srcTagged {
			m.Int[2] = specPC // data field carries the excepting PC
			m.setRegTag(ir.R(2), Tag{Set: true, Kind: ir.ExcPageFault})
		}
		m.Mem.Write(0x1000, 8, 42)
		return m
	}
	load := func(spec bool, pc int) *ir.Instr {
		in := ir.LOAD(ir.Ld, ir.R(1), ir.R(2), 0)
		in.Spec = spec
		in.PC = pc
		return in
	}

	t.Run("000_conventional", func(t *testing.T) {
		m := setup(true, false)
		ev, err := m.exec1(load(false, 10), 0)
		if err != nil || ev.signalled() {
			t.Fatalf("ev=%+v err=%v", ev, err)
		}
		if m.Int[1] != 42 || m.tag(ir.R(1)).Set {
			t.Errorf("dest = %d tag=%v, want 42 untagged", m.Int[1], m.tag(ir.R(1)))
		}
	})
	t.Run("001_nonspec_exception_signals_own_pc", func(t *testing.T) {
		m := setup(false, false)
		ev, err := m.exec1(load(false, 10), 0)
		if err != nil || !ev.signalled() || ev.reportPC != 10 {
			t.Fatalf("ev=%+v err=%v, want signal pc 10", ev, err)
		}
	})
	t.Run("010_sentinel_signals_src_data", func(t *testing.T) {
		m := setup(true, true)
		add := ir.ALUI(ir.Add, ir.R(3), ir.R(2), 1)
		add.PC = 11
		ev, err := m.exec1(add, 0)
		if err != nil || !ev.signalled() || ev.reportPC != specPC {
			t.Fatalf("ev=%+v err=%v, want signal pc %d", ev, err, specPC)
		}
		if ev.kind != ir.ExcPageFault {
			t.Errorf("kind = %v", ev.kind)
		}
	})
	t.Run("011_sentinel_signals_before_own_exception", func(t *testing.T) {
		m := setup(false, true) // base tagged AND load would fault
		ev, err := m.exec1(load(false, 12), 0)
		if err != nil || !ev.signalled() || ev.reportPC != specPC {
			t.Fatalf("ev=%+v err=%v, want signal pc %d", ev, err, specPC)
		}
	})
	t.Run("100_speculative_conventional", func(t *testing.T) {
		m := setup(true, false)
		ev, err := m.exec1(load(true, 13), 0)
		if err != nil || ev.signalled() {
			t.Fatalf("ev=%+v err=%v", ev, err)
		}
		if m.Int[1] != 42 || m.tag(ir.R(1)).Set {
			t.Errorf("dest = %d tagged=%v", m.Int[1], m.tag(ir.R(1)).Set)
		}
	})
	t.Run("101_speculative_exception_tags_dest_with_pc", func(t *testing.T) {
		m := setup(false, false)
		ev, err := m.exec1(load(true, 14), 0)
		if err != nil || ev.signalled() {
			t.Fatalf("ev=%+v err=%v: speculative exception must not signal", ev, err)
		}
		if tg := m.tag(ir.R(1)); !tg.Set || tg.Kind != ir.ExcAccessViolation {
			t.Errorf("dest tag = %+v", tg)
		}
		if m.Int[1] != 14 {
			t.Errorf("dest data = %d, want pc 14", m.Int[1])
		}
	})
	t.Run("110_propagation", func(t *testing.T) {
		m := setup(true, true)
		add := ir.ALUI(ir.Add, ir.R(3), ir.R(2), 1)
		add.Spec = true
		add.PC = 15
		ev, err := m.exec1(add, 0)
		if err != nil || ev.signalled() {
			t.Fatalf("ev=%+v err=%v", ev, err)
		}
		if tg := m.tag(ir.R(3)); !tg.Set {
			t.Error("propagation must set dest tag")
		}
		if m.Int[3] != specPC {
			t.Errorf("dest data = %d, want propagated pc %d", m.Int[3], specPC)
		}
	})
	t.Run("111_propagation_wins_over_own_exception", func(t *testing.T) {
		m := setup(false, true)
		ev, err := m.exec1(load(true, 16), 0)
		if err != nil || ev.signalled() {
			t.Fatalf("ev=%+v err=%v", ev, err)
		}
		if m.Int[1] != specPC {
			t.Errorf("dest data = %d, want propagated pc %d (not own pc 16)", m.Int[1], specPC)
		}
	})
	t.Run("first_tagged_source_wins", func(t *testing.T) {
		m := testMachine(machine.Sentinel)
		m.Int[2], m.Int[3] = 100, 200
		m.setRegTag(ir.R(2), Tag{Set: true, Kind: ir.ExcPageFault})
		m.setRegTag(ir.R(3), Tag{Set: true, Kind: ir.ExcDivZero})
		add := ir.ALU(ir.Add, ir.R(4), ir.R(2), ir.R(3))
		add.Spec = true
		if _, err := m.exec1(add, 0); err != nil {
			t.Fatal(err)
		}
		if m.Int[4] != 100 {
			t.Errorf("dest data = %d, want first tagged source's data 100", m.Int[4])
		}
		if m.tag(ir.R(4)).Kind != ir.ExcPageFault {
			t.Errorf("kind = %v, want first source's kind", m.tag(ir.R(4)).Kind)
		}
	})
	t.Run("normal_write_clears_tag", func(t *testing.T) {
		m := testMachine(machine.Sentinel)
		m.setRegTag(ir.R(1), Tag{Set: true, Kind: ir.ExcPageFault})
		li := ir.LI(ir.R(1), 5)
		if _, err := m.exec1(li, 0); err != nil {
			t.Fatal(err)
		}
		if m.tag(ir.R(1)).Set {
			t.Error("redefinition must clear the exception tag")
		}
	})
}

// TestTable2 drives every row of Table 2 (insertion of a store into the
// store buffer) under the speculative-store model.
func TestTable2(t *testing.T) {
	const specPC = 21
	setup := func(validAddr, srcTagged bool) (*Machine, *ir.Instr) {
		m := testMachine(machine.SentinelStores)
		m.Int[2] = 0x1000
		if !validAddr {
			m.Int[2] = 0xdead000
		}
		m.Int[5] = 77 // store data
		if srcTagged {
			m.Int[5] = specPC
			m.setRegTag(ir.R(5), Tag{Set: true, Kind: ir.ExcPageFault})
		}
		st := ir.STORE(ir.St, ir.R(2), 0, ir.R(5))
		st.PC = 30
		return m, st
	}

	t.Run("000_confirmed_entry", func(t *testing.T) {
		m, st := setup(true, false)
		ev, err := m.exec1(st, 0)
		if err != nil || ev.signalled() {
			t.Fatalf("ev=%+v err=%v", ev, err)
		}
		es := m.buf.Entries()
		if len(es) != 1 || !es[0].Confirmed || es[0].ExcSet {
			t.Errorf("entries = %+v", es)
		}
	})
	t.Run("001_nonspec_fault_flushes_and_signals", func(t *testing.T) {
		m, _ := setup(true, false)
		// Pre-load a confirmed entry that must be forced to the cache.
		m.exec1(ir.STORE(ir.St, ir.R(2), 8, ir.R(5)), 0)
		m.Int[2] = 0xdead000
		st := ir.STORE(ir.St, ir.R(2), 0, ir.R(5))
		st.PC = 31
		ev, err := m.exec1(st, 1)
		if err != nil || !ev.signalled() || ev.reportPC != 31 {
			t.Fatalf("ev=%+v err=%v", ev, err)
		}
		if m.buf.Len() != 0 {
			t.Error("confirmed entries must have been forced to the cache")
		}
		if v, _ := m.Mem.Read(0x1008, 8); v != 77 {
			t.Errorf("flushed store missing: %d", v)
		}
	})
	t.Run("010_store_as_sentinel", func(t *testing.T) {
		m, st := setup(true, true)
		ev, err := m.exec1(st, 0)
		if err != nil || !ev.signalled() || ev.reportPC != specPC {
			t.Fatalf("ev=%+v err=%v, want signal pc %d", ev, err, specPC)
		}
		if m.buf.Len() != 0 {
			t.Error("no entry may be inserted when the store signals")
		}
	})
	t.Run("100_probationary_entry", func(t *testing.T) {
		m, st := setup(true, false)
		st.Spec = true
		ev, err := m.exec1(st, 0)
		if err != nil || ev.signalled() {
			t.Fatalf("ev=%+v err=%v", ev, err)
		}
		es := m.buf.Entries()
		if len(es) != 1 || es[0].Confirmed || es[0].ExcSet {
			t.Errorf("entries = %+v", es)
		}
	})
	t.Run("101_spec_fault_tags_entry_with_own_pc", func(t *testing.T) {
		m, st := setup(false, false)
		st.Spec = true
		ev, err := m.exec1(st, 0)
		if err != nil || ev.signalled() {
			t.Fatalf("speculative store exception must not signal: %+v %v", ev, err)
		}
		es := m.buf.Entries()
		if len(es) != 1 || !es[0].ExcSet || es[0].ExcPC != 30 {
			t.Errorf("entries = %+v, want exc entry with pc 30", es)
		}
	})
	t.Run("110_spec_tagged_source_propagates", func(t *testing.T) {
		m, st := setup(true, true)
		st.Spec = true
		ev, err := m.exec1(st, 0)
		if err != nil || ev.signalled() {
			t.Fatalf("ev=%+v err=%v", ev, err)
		}
		es := m.buf.Entries()
		if len(es) != 1 || !es[0].ExcSet || es[0].ExcPC != specPC {
			t.Errorf("entries = %+v, want propagated pc %d", es, specPC)
		}
	})
	t.Run("111_propagation_wins", func(t *testing.T) {
		m, _ := setup(false, true)
		m.Int[2] = 0xdead000
		st := ir.STORE(ir.St, ir.R(2), 0, ir.R(5))
		st.PC = 30
		st.Spec = true
		ev, err := m.exec1(st, 0)
		if err != nil || ev.signalled() {
			t.Fatalf("ev=%+v err=%v", ev, err)
		}
		es := m.buf.Entries()
		if len(es) != 1 || es[0].ExcPC != specPC {
			t.Errorf("entries = %+v, want propagated pc %d", es, specPC)
		}
	})
	t.Run("confirm_reports_exception", func(t *testing.T) {
		m, st := setup(false, false)
		st.Spec = true
		if _, err := m.exec1(st, 0); err != nil {
			t.Fatal(err)
		}
		cf := ir.CONFIRM(0)
		cf.PC = 40
		ev, err := m.exec1(cf, 1)
		if err != nil || !ev.signalled() || ev.reportPC != 30 {
			t.Fatalf("confirm ev=%+v err=%v, want signal pc 30", ev, err)
		}
		if m.buf.Len() != 0 {
			t.Error("excepting entry must be removed at confirm (for re-execution)")
		}
	})
	t.Run("confirm_clean_entry", func(t *testing.T) {
		m, st := setup(true, false)
		st.Spec = true
		m.exec1(st, 0)
		ev, err := m.exec1(ir.CONFIRM(0), 1)
		if err != nil || ev.signalled() {
			t.Fatalf("ev=%+v err=%v", ev, err)
		}
		if es := m.buf.Entries(); !es[0].Confirmed {
			t.Error("entry must be confirmed")
		}
	})
}
