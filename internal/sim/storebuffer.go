package sim

import (
	"fmt"

	"sentinel/internal/ir"
	"sentinel/internal/mem"
)

// Entry is one store-buffer entry. Beyond the conventional address, data and
// valid fields, probationary entries (speculative stores, §4.1) carry a
// confirmation bit, an exception tag and an exception PC.
type Entry struct {
	Addr int64
	Size int
	Data uint64

	Confirmed bool
	ExcSet    bool
	ExcKind   ir.ExcKind
	ExcPC     int64 // raw: PC of the excepting store, or propagated source data

	// Level is the shadow store-buffer level under the boosting model: the
	// number of branch commits remaining before the entry is confirmed
	// (0 for sentinel-model probationary entries, which confirm_store
	// confirms explicitly).
	Level int

	insertedAt int64
}

// storeBuffer is the FIFO store buffer between CPU and data cache. Entries
// are appended at the tail; the head releases to the cache at one entry per
// cycle, but a probationary (unconfirmed) head entry blocks all releases.
//
// Storage is a fixed ring allocated once at construction: the buffer is
// bounded by the machine's capacity, and insert/release run once per dynamic
// store, so the ring keeps the simulator's inner loop allocation-free.
type storeBuffer struct {
	data      []Entry // ring storage, len == capacity
	head      int     // index of the oldest entry in data
	count     int     // live entries
	lastDrain int64
}

func newStoreBuffer(capacity int) *storeBuffer {
	return &storeBuffer{data: make([]Entry, capacity)}
}

// at returns the i-th oldest live entry (0 is the head). i < capacity, so a
// conditional wrap suffices (and avoids a hardware divide on the hot path).
func (sb *storeBuffer) at(i int) *Entry {
	j := sb.head + i
	if j >= len(sb.data) {
		j -= len(sb.data)
	}
	return &sb.data[j]
}

// popHead discards the oldest entry.
func (sb *storeBuffer) popHead() {
	sb.head++
	if sb.head == len(sb.data) {
		sb.head = 0
	}
	sb.count--
}

// removeAt deletes the i-th oldest entry, shifting younger entries down.
func (sb *storeBuffer) removeAt(i int) {
	for j := i; j < sb.count-1; j++ {
		*sb.at(j) = *sb.at(j + 1)
	}
	sb.count--
}

// Len returns the current occupancy.
func (sb *storeBuffer) Len() int { return sb.count }

// Entries returns a copy of the buffer contents (oldest first) for tests and
// tools; the ring layout is not exposed.
func (sb *storeBuffer) Entries() []Entry {
	out := make([]Entry, sb.count)
	for i := range out {
		out[i] = *sb.at(i)
	}
	return out
}

// drainTo releases confirmed head entries to memory, one per cycle, up to
// time t.
func (sb *storeBuffer) drainTo(t int64, m *mem.Memory) {
	for sb.count > 0 {
		h := sb.at(0)
		if !h.Confirmed {
			return
		}
		at := sb.lastDrain + 1
		if h.insertedAt+1 > at {
			at = h.insertedAt + 1
		}
		if at > t {
			return
		}
		if f := m.Write(h.Addr, h.Size, h.Data); f.Failed() {
			// Address translation succeeded at insertion; a fault here means
			// the memory map changed under a buffered store.
			panic(fmt.Sprintf("sim: store buffer release faulted: %v", f))
		}
		sb.lastDrain = at
		sb.popHead()
	}
}

// flushConfirmed drains all confirmed head entries immediately (used by the
// tag-preserving spill instructions and by Table 2 row 001: "force all
// confirmed entries at head of buffer to update cache").
func (sb *storeBuffer) flushConfirmed(m *mem.Memory) {
	for sb.count > 0 && sb.at(0).Confirmed {
		h := sb.at(0)
		if f := m.Write(h.Addr, h.Size, h.Data); f.Failed() {
			panic(fmt.Sprintf("sim: store buffer release faulted: %v", f))
		}
		sb.popHead()
	}
}

// insert appends a new entry at time t, stalling (returning a later time)
// when the buffer is full. It reports an error when the buffer can never
// free an entry (probationary head with the processor stalled: the deadlock
// §4.2's separation constraint exists to prevent).
func (sb *storeBuffer) insert(t int64, e Entry, m *mem.Memory) (int64, error) {
	sb.drainTo(t, m)
	for sb.count >= len(sb.data) {
		h := sb.at(0)
		if !h.Confirmed {
			return t, fmt.Errorf("sim: store buffer deadlock: full with probationary head (schedule violates the N-1 separation constraint)")
		}
		at := sb.lastDrain + 1
		if h.insertedAt+1 > at {
			at = h.insertedAt + 1
		}
		if at > t {
			t = at // stall the processor until an entry frees
		}
		sb.drainTo(t, m)
	}
	e.insertedAt = t
	*sb.at(sb.count) = e
	sb.count++
	return t, nil
}

// loadOverlay performs a load at (addr,size): the memory value overlaid with
// all overlapping buffer entries in insertion order (oldest to youngest), so
// the youngest store wins byte-wise. Probationary entries whose exception
// tag is set do not participate in the search (§4.1), enabling independent
// re-execution of the load and the excepting store. A load that no
// forwardable entry overlaps (the common case) returns the memory value as
// read.
func (sb *storeBuffer) loadOverlay(addr int64, size int, m *mem.Memory) (uint64, mem.Fault) {
	v, f := m.Read(addr, size)
	if f.Failed() {
		return 0, f
	}
	end := addr + int64(size)
	first := 0
	for ; first < sb.count; first++ {
		e := sb.at(first)
		if !(e.ExcSet && !e.Confirmed) && e.Addr < end && addr < e.Addr+int64(e.Size) {
			break
		}
	}
	if first == sb.count {
		return v, f
	}
	var bytes [8]byte
	for i := 0; i < size; i++ {
		bytes[i] = byte(v >> (8 * i))
	}
	for i := first; i < sb.count; i++ {
		e := sb.at(i)
		if e.ExcSet && !e.Confirmed {
			continue
		}
		lo := max(addr, e.Addr)
		hi := min(end, e.Addr+int64(e.Size))
		for b := lo; b < hi; b++ {
			bytes[b-addr] = byte(e.Data >> (8 * (b - e.Addr)))
		}
	}
	var out uint64
	for i := 0; i < size; i++ {
		out |= uint64(bytes[i]) << (8 * i)
	}
	return out, f
}

// confirm handles confirm_store(index): the probationary entry index entries
// from the tail is confirmed; if its exception tag is set, the entry is
// removed and the exception information returned for signalling (the store
// will be re-executed under recovery).
func (sb *storeBuffer) confirm(index int64) (exc bool, kind ir.ExcKind, excPC int64, err error) {
	i := sb.count - 1 - int(index)
	if index < 0 || i < 0 {
		return false, 0, 0, fmt.Errorf("sim: confirm_store(%d) out of range (%d entries)", index, sb.count)
	}
	e := sb.at(i)
	if e.Confirmed {
		return false, 0, 0, fmt.Errorf("sim: confirm_store(%d) targets an already confirmed entry", index)
	}
	if e.ExcSet {
		kind, excPC = e.ExcKind, e.ExcPC
		sb.removeAt(i)
		return true, kind, excPC, nil
	}
	e.Confirmed = true
	return false, 0, 0, nil
}

// commitLevel moves every shadow (boosted) entry one branch closer to
// commitment; entries reaching level 0 are confirmed, or returned for
// signalling when their exception tag is set (and removed, like a
// confirm-time exception).
func (sb *storeBuffer) commitLevel() *Entry {
	for i := 0; i < sb.count; i++ {
		e := sb.at(i)
		if e.Confirmed || e.Level == 0 {
			continue
		}
		e.Level--
		if e.Level == 0 {
			if e.ExcSet {
				out := *e
				sb.removeAt(i)
				return &out
			}
			e.Confirmed = true
		}
	}
	return nil
}

// cancelProbationary removes all unconfirmed entries (branch misprediction,
// §4.1).
func (sb *storeBuffer) cancelProbationary() {
	kept := 0
	for i := 0; i < sb.count; i++ {
		e := *sb.at(i)
		if e.Confirmed {
			*sb.at(kept) = e
			kept++
		}
	}
	sb.count = kept
}

// drainAll flushes every remaining entry to memory and returns the cycle at
// which the last release completes. All entries must be confirmed.
func (sb *storeBuffer) drainAll(t int64, m *mem.Memory) int64 {
	for sb.count > 0 {
		h := sb.at(0)
		if !h.Confirmed {
			panic("sim: drainAll with probationary entry (unconfirmed speculative store at program end)")
		}
		at := sb.lastDrain + 1
		if h.insertedAt+1 > at {
			at = h.insertedAt + 1
		}
		if f := m.Write(h.Addr, h.Size, h.Data); f.Failed() {
			panic(fmt.Sprintf("sim: store buffer release faulted: %v", f))
		}
		sb.lastDrain = at
		sb.popHead()
		if at > t {
			t = at
		}
	}
	return t
}
