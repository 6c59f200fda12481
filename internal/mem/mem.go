// Package mem provides the byte-addressable data memory used by both the
// reference interpreter and the cycle simulator. Memory is organized as named
// segments; accesses outside any segment raise an access violation, and
// segments may be marked "not present" to model demand paging (page faults),
// which the recovery experiments use for fault injection.
package mem

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"sort"

	"sentinel/internal/ir"
)

// Fault describes the outcome of a memory access; the zero Fault (Kind
// ir.ExcNone) means the access succeeded. Faults are data, not Go errors,
// and are returned by value, so a faulting access allocates nothing: the
// machine architecture decides whether a fault becomes a signalled
// exception (non-speculative access) or a tagged register (speculative).
type Fault struct {
	Kind ir.ExcKind
	Addr int64
}

// Failed reports whether the access faulted.
func (f Fault) Failed() bool { return f.Kind != ir.ExcNone }

func (f Fault) String() string {
	return fmt.Sprintf("%v at address %#x", f.Kind, f.Addr)
}

// Segment is a contiguous mapped region.
type Segment struct {
	Name    string
	Base    int64
	Data    []byte
	Present bool // false models a paged-out region: access => page fault
}

// Contains reports whether [addr, addr+size) lies inside the segment.
func (s *Segment) Contains(addr int64, size int) bool {
	return addr >= s.Base && addr+int64(size) <= s.Base+int64(len(s.Data))
}

// Memory is a sparse, segment-based memory image.
//
// Concurrency: a Memory is not safe for concurrent use while any goroutine
// writes it (Map, Write, WriteTagged, or segment mutation). The evaluation
// runner keeps one pristine image per benchmark and hands every simulation
// its own Clone; the pristine image itself is only ever read (Clone,
// Checksum), which is safe from multiple goroutines.
type Memory struct {
	segs []*Segment // sorted by Base, non-overlapping
	// tags holds the exception-tag sidecar written by SaveTR and read by
	// RestTR (§3.2: special instructions that save/restore both the data and
	// the exception tag of a register, e.g. for spill or context switch).
	tags map[int64]byte
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{tags: make(map[int64]byte)}
}

// Map creates a zero-initialized segment of the given size at base and
// returns it. It panics if the new segment would overlap an existing one;
// memory layout bugs in workload generators should fail loudly.
func (m *Memory) Map(name string, base int64, size int) *Segment {
	if size < 0 {
		panic("mem: negative segment size")
	}
	for _, s := range m.segs {
		if base < s.Base+int64(len(s.Data)) && s.Base < base+int64(size) {
			panic(fmt.Sprintf("mem: segment %q [%#x,%#x) overlaps %q",
				name, base, base+int64(size), s.Name))
		}
	}
	seg := &Segment{Name: name, Base: base, Data: make([]byte, size), Present: true}
	m.segs = append(m.segs, seg)
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].Base < m.segs[j].Base })
	return seg
}

// Segment returns the named segment, or nil.
func (m *Memory) Segment(name string) *Segment {
	for _, s := range m.segs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// find returns the segment holding [addr, addr+size): the first segment
// ending after addr, scanned directly (a memory has a handful of segments).
func (m *Memory) find(addr int64, size int) (*Segment, Fault) {
	for _, s := range m.segs {
		if addr < s.Base+int64(len(s.Data)) {
			if !s.Contains(addr, size) {
				break
			}
			if !s.Present {
				return nil, Fault{Kind: ir.ExcPageFault, Addr: addr}
			}
			return s, Fault{}
		}
	}
	return nil, Fault{Kind: ir.ExcAccessViolation, Addr: addr}
}

// Check performs address translation for a size-byte access at addr without
// touching data: it returns the fault a real access would raise.
// The store buffer uses it at insertion time (§4.1: "Address translation is
// performed during insertion").
func (m *Memory) Check(addr int64, size int) Fault {
	_, f := m.find(addr, size)
	return f
}

// Read reads size (1 or 8) bytes at addr, little-endian.
func (m *Memory) Read(addr int64, size int) (uint64, Fault) {
	s, f := m.find(addr, size)
	if f.Failed() {
		return 0, f
	}
	off := addr - s.Base
	switch size {
	case 1:
		return uint64(s.Data[off]), f
	case 8:
		return binary.LittleEndian.Uint64(s.Data[off:]), f
	default:
		panic(fmt.Sprintf("mem: unsupported access size %d", size))
	}
}

// Write writes size (1 or 8) bytes at addr, little-endian. A plain write
// clears any exception-tag sidecar at the address.
func (m *Memory) Write(addr int64, size int, val uint64) Fault {
	s, f := m.find(addr, size)
	if f.Failed() {
		return f
	}
	off := addr - s.Base
	switch size {
	case 1:
		s.Data[off] = byte(val)
	case 8:
		binary.LittleEndian.PutUint64(s.Data[off:], val)
	default:
		panic(fmt.Sprintf("mem: unsupported access size %d", size))
	}
	delete(m.tags, addr)
	return f
}

// WriteTagged writes a register's data together with its exception tag
// (SaveTR). Tag is stored in a sidecar so the memory image itself is
// unchanged in layout.
func (m *Memory) WriteTagged(addr int64, val uint64, tag byte) Fault {
	f := m.Write(addr, 8, val)
	if !f.Failed() && tag != 0 {
		m.tags[addr] = tag
	}
	return f
}

// ReadTagged reads a register's data together with its exception tag
// (RestTR).
func (m *Memory) ReadTagged(addr int64) (uint64, byte, Fault) {
	v, f := m.Read(addr, 8)
	if f.Failed() {
		return 0, 0, f
	}
	return v, m.tags[addr], f
}

// Checksum returns a digest of all mapped bytes (segments in base order);
// two memories with identical mapped contents compare equal. Architectural
// results of the reference interpreter and every scheduled run are compared
// through this.
func (m *Memory) Checksum() uint64 {
	tab := crc64.MakeTable(crc64.ECMA)
	var h uint64
	var hdr [16]byte
	for _, s := range m.segs {
		binary.LittleEndian.PutUint64(hdr[0:], uint64(s.Base))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(len(s.Data)))
		h = crc64.Update(h, tab, hdr[:])
		h = crc64.Update(h, tab, s.Data)
	}
	return h
}

// Clone returns a deep copy of the memory (segments and tag sidecar).
func (m *Memory) Clone() *Memory {
	c := New()
	for _, s := range m.segs {
		d := make([]byte, len(s.Data))
		copy(d, s.Data)
		c.segs = append(c.segs, &Segment{Name: s.Name, Base: s.Base, Data: d, Present: s.Present})
	}
	for k, v := range m.tags {
		c.tags[k] = v
	}
	return c
}
