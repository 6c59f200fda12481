package sim

import (
	"testing"
	"testing/quick"

	"sentinel/internal/mem"
)

func bufMem() *mem.Memory {
	m := mem.New()
	m.Map("d", 0, 4096)
	return m
}

func TestBufferFIFODrain(t *testing.T) {
	m := bufMem()
	sb := newStoreBuffer(4)
	for i := 0; i < 3; i++ {
		if _, err := sb.insert(int64(i), Entry{Addr: int64(i * 8), Size: 8, Data: uint64(i + 1), Confirmed: true}, m); err != nil {
			t.Fatal(err)
		}
	}
	// Releases happen one per cycle after insertion: by the time the third
	// store inserts at t=2, the first two entries (insertable at t=1 and
	// t=2) have already been released.
	if sb.Len() != 1 {
		t.Errorf("after inserts: %d entries, want 1", sb.Len())
	}
	sb.drainTo(100, m)
	if sb.Len() != 0 {
		t.Errorf("after full drain: %d entries", sb.Len())
	}
	for i := 0; i < 3; i++ {
		if v, _ := m.Read(int64(i*8), 8); v != uint64(i+1) {
			t.Errorf("mem[%d] = %d", i*8, v)
		}
	}
}

func TestProbationaryHeadBlocksDrain(t *testing.T) {
	m := bufMem()
	sb := newStoreBuffer(4)
	sb.insert(0, Entry{Addr: 0, Size: 8, Data: 1}, m) // probationary
	sb.insert(0, Entry{Addr: 8, Size: 8, Data: 2, Confirmed: true}, m)
	sb.drainTo(100, m)
	if sb.Len() != 2 {
		t.Errorf("probationary head must block releases; %d entries", sb.Len())
	}
	if v, _ := m.Read(0, 8); v != 0 {
		t.Error("probationary data must not reach memory")
	}
}

func TestInsertStallsWhenFull(t *testing.T) {
	m := bufMem()
	sb := newStoreBuffer(2)
	sb.insert(0, Entry{Addr: 0, Size: 8, Data: 1, Confirmed: true}, m)
	sb.insert(0, Entry{Addr: 8, Size: 8, Data: 2, Confirmed: true}, m)
	// Buffer full at t=0; the head can drain at t=1, freeing a slot.
	at, err := sb.insert(0, Entry{Addr: 16, Size: 8, Data: 3, Confirmed: true}, m)
	if err != nil {
		t.Fatal(err)
	}
	if at != 1 {
		t.Errorf("stalled insert at t=%d, want 1", at)
	}
}

func TestInsertDeadlockDetected(t *testing.T) {
	m := bufMem()
	sb := newStoreBuffer(2)
	sb.insert(0, Entry{Addr: 0, Size: 8, Data: 1}, m) // probationary head
	sb.insert(0, Entry{Addr: 8, Size: 8, Data: 2, Confirmed: true}, m)
	if _, err := sb.insert(0, Entry{Addr: 16, Size: 8, Data: 3, Confirmed: true}, m); err == nil {
		t.Fatal("full buffer with probationary head must be detected as deadlock")
	}
}

func TestConfirmIndexFromTail(t *testing.T) {
	m := bufMem()
	sb := newStoreBuffer(8)
	sb.insert(0, Entry{Addr: 0, Size: 8, Data: 1}, m)                  // spec S1
	sb.insert(0, Entry{Addr: 8, Size: 8, Data: 2, Confirmed: true}, m) // regular
	sb.insert(0, Entry{Addr: 16, Size: 8, Data: 3}, m)                 // spec S2
	// S1 is 2 entries from the tail; S2 is 0.
	if exc, _, _, err := sb.confirm(2); err != nil || exc {
		t.Fatalf("confirm(2): exc=%v err=%v", exc, err)
	}
	if !sb.Entries()[0].Confirmed {
		t.Error("S1 must be confirmed")
	}
	if exc, _, _, err := sb.confirm(0); err != nil || exc {
		t.Fatalf("confirm(0): exc=%v err=%v", exc, err)
	}
	if !sb.Entries()[2].Confirmed {
		t.Error("S2 must be confirmed")
	}
	// Double confirm is a machine error.
	if _, _, _, err := sb.confirm(0); err == nil {
		t.Error("double confirm must error")
	}
	// Out of range.
	if _, _, _, err := sb.confirm(9); err == nil {
		t.Error("out-of-range confirm must error")
	}
}

func TestCancelProbationaryKeepsConfirmed(t *testing.T) {
	m := bufMem()
	sb := newStoreBuffer(8)
	sb.insert(0, Entry{Addr: 0, Size: 8, Data: 1, Confirmed: true}, m)
	sb.insert(0, Entry{Addr: 8, Size: 8, Data: 2}, m)
	sb.insert(0, Entry{Addr: 16, Size: 8, Data: 3, Confirmed: true}, m)
	sb.insert(0, Entry{Addr: 24, Size: 8, Data: 4}, m)
	sb.cancelProbationary()
	if sb.Len() != 2 {
		t.Fatalf("%d entries after cancel, want 2", sb.Len())
	}
	for _, e := range sb.Entries() {
		if !e.Confirmed {
			t.Error("unconfirmed entry survived cancellation")
		}
	}
}

func TestLoadOverlayPartial(t *testing.T) {
	m := bufMem()
	m.Write(0x10, 8, 0x1111111111111111)
	sb := newStoreBuffer(8)
	// Byte store into the middle of the word.
	sb.insert(0, Entry{Addr: 0x13, Size: 1, Data: 0xAB, Confirmed: true}, m)
	v, f := sb.loadOverlay(0x10, 8, m)
	if f.Failed() {
		t.Fatal(f)
	}
	want := uint64(0x11111111AB111111)
	if v != want {
		t.Errorf("overlay = %#x, want %#x", v, want)
	}
}

func TestLoadOverlaySkipsExceptedProbationary(t *testing.T) {
	m := bufMem()
	m.Write(0x20, 8, 7)
	sb := newStoreBuffer(8)
	sb.insert(0, Entry{Addr: 0x20, Size: 8, Data: 99, ExcSet: true}, m)
	v, _ := sb.loadOverlay(0x20, 8, m)
	if v != 7 {
		t.Errorf("load = %d: excepting probationary entry must not forward", v)
	}
}

// Property: after any sequence of confirmed inserts and drains, memory
// reflects exactly the youngest store per address.
func TestBufferCoherenceQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		m := bufMem()
		sb := newStoreBuffer(8)
		shadow := map[int64]uint64{}
		var tick int64
		for _, op := range ops {
			addr := int64(op%32) * 8
			val := uint64(op)
			tick += 2 // leave room for drains
			if _, err := sb.insert(tick, Entry{Addr: addr, Size: 8, Data: val, Confirmed: true}, m); err != nil {
				return false
			}
			shadow[addr] = val
		}
		sb.drainAll(tick, m)
		for a, v := range shadow {
			got, fa := m.Read(a, 8)
			if fa.Failed() || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
