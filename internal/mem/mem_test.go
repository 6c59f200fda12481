package mem

import (
	"testing"
	"testing/quick"

	"sentinel/internal/ir"
)

func TestMapAndReadWrite(t *testing.T) {
	m := New()
	m.Map("data", 0x1000, 64)
	if f := m.Write(0x1000, 8, 0xdeadbeef); f.Failed() {
		t.Fatalf("write: %v", f)
	}
	v, f := m.Read(0x1000, 8)
	if f.Failed() || v != 0xdeadbeef {
		t.Fatalf("read = %#x, %v", v, f)
	}
	if f := m.Write(0x1010, 1, 0xab); f.Failed() {
		t.Fatalf("byte write: %v", f)
	}
	v, f = m.Read(0x1010, 1)
	if f.Failed() || v != 0xab {
		t.Fatalf("byte read = %#x, %v", v, f)
	}
}

func TestUnmappedAccessViolation(t *testing.T) {
	m := New()
	m.Map("data", 0x1000, 16)
	for _, addr := range []int64{0, 0xfff, 0x1010, 0x100000} {
		if _, f := m.Read(addr, 8); !f.Failed() || f.Kind != ir.ExcAccessViolation {
			t.Errorf("read %#x: fault = %v, want access violation", addr, f)
		}
		if f := m.Write(addr, 8, 1); !f.Failed() || f.Kind != ir.ExcAccessViolation {
			t.Errorf("write %#x: fault = %v, want access violation", addr, f)
		}
	}
	// Straddling the end of a segment also faults.
	if _, f := m.Read(0x1009, 8); !f.Failed() {
		t.Error("read straddling segment end must fault")
	}
}

func TestPageFaultAndRepair(t *testing.T) {
	m := New()
	s := m.Map("heap", 0x2000, 32)
	s.Present = false
	if _, f := m.Read(0x2000, 8); !f.Failed() || f.Kind != ir.ExcPageFault {
		t.Fatalf("paged-out read fault = %v, want page fault", f)
	}
	if f := m.Write(0x2008, 8, 7); !f.Failed() || f.Kind != ir.ExcPageFault {
		t.Fatalf("paged-out write fault = %v, want page fault", f)
	}
	s.Present = true // the "OS" maps the page in
	if _, f := m.Read(0x2000, 8); f.Failed() {
		t.Fatalf("after repair: %v", f)
	}
}

func TestOverlapPanics(t *testing.T) {
	m := New()
	m.Map("a", 0x1000, 64)
	defer func() {
		if recover() == nil {
			t.Error("overlapping Map must panic")
		}
	}()
	m.Map("b", 0x1030, 64)
}

func TestSegmentLookupByName(t *testing.T) {
	m := New()
	m.Map("a", 0x1000, 8)
	m.Map("b", 0x2000, 8)
	if s := m.Segment("b"); s == nil || s.Base != 0x2000 {
		t.Errorf("Segment(b) = %+v", s)
	}
	if m.Segment("missing") != nil {
		t.Error("missing segment should be nil")
	}
}

func TestTaggedSpillRoundTrip(t *testing.T) {
	m := New()
	m.Map("stack", 0x8000, 64)
	if f := m.WriteTagged(0x8000, 12345, 2); f.Failed() {
		t.Fatal(f)
	}
	v, tag, f := m.ReadTagged(0x8000)
	if f.Failed() || v != 12345 || tag != 2 {
		t.Fatalf("ReadTagged = %d, %d, %v", v, tag, f)
	}
	// A plain (non-tag-preserving) write clears the sidecar tag.
	if f := m.Write(0x8000, 8, 999); f.Failed() {
		t.Fatal(f)
	}
	_, tag, _ = m.ReadTagged(0x8000)
	if tag != 0 {
		t.Errorf("plain write must clear tag sidecar; tag = %d", tag)
	}
}

func TestChecksumDetectsDifferences(t *testing.T) {
	a, b := New(), New()
	a.Map("d", 0x1000, 32)
	b.Map("d", 0x1000, 32)
	if a.Checksum() != b.Checksum() {
		t.Fatal("identical memories must have equal checksums")
	}
	a.Write(0x1008, 8, 5)
	if a.Checksum() == b.Checksum() {
		t.Fatal("checksum must reflect content changes")
	}
	b.Write(0x1008, 8, 5)
	if a.Checksum() != b.Checksum() {
		t.Fatal("checksums must re-converge")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := New()
	m.Map("d", 0x1000, 16)
	m.Write(0x1000, 8, 42)
	m.WriteTagged(0x1008, 7, 1)
	c := m.Clone()
	if c.Checksum() != m.Checksum() {
		t.Fatal("clone checksum differs")
	}
	c.Write(0x1000, 8, 99)
	if v, _ := m.Read(0x1000, 8); v != 42 {
		t.Error("mutating clone must not affect original")
	}
	if _, tag, _ := c.ReadTagged(0x1008); tag != 1 {
		t.Error("clone must carry tag sidecar")
	}
}

// Property: for random in-bounds offsets, a written value reads back, both
// widths.
func TestReadBackQuick(t *testing.T) {
	m := New()
	const size = 4096
	m.Map("d", 0, size)
	f := func(off uint16, val uint64, byteWide bool) bool {
		width := 8
		if byteWide {
			width = 1
		}
		addr := int64(off) % (size - 8)
		if fa := m.Write(addr, width, val); fa.Failed() {
			return false
		}
		got, fa := m.Read(addr, width)
		if fa.Failed() {
			return false
		}
		if width == 1 {
			return got == val&0xff
		}
		return got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: any access entirely outside mapped segments faults and never
// mutates the checksum.
func TestOutOfBoundsNeverMutatesQuick(t *testing.T) {
	m := New()
	m.Map("d", 0x1000, 256)
	sum := m.Checksum()
	f := func(addr int64, val uint64) bool {
		a := addr
		if a >= 0x1000 && a < 0x1100 {
			a += 0x10000 // push outside
		}
		fw := m.Write(a, 8, val)
		return fw.Failed() && m.Checksum() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
