// Package fingerprint is the canonical request fingerprint shared by the
// backend serving layer (internal/server, keying its response-byte cache)
// and the fleet router (internal/fleet, consistent-hashing requests onto
// backends). The key must identify everything that can influence the
// response bytes and nothing else: the normalized program spec (workload
// name, or the sha256 of inline source), the fully resolved machine
// description (so "sentinel" and "" and width 0 vs 8 land on one key), and
// the per-endpoint options.
//
// Both sides MUST agree byte-for-byte: a router that fingerprints a request
// differently from the backend silently splits the fleet's caches — every
// repeat would land on a backend whose cache was warmed under a different
// key. The golden test in this package pins the serialization so a skew
// can never creep in unnoticed.
package fingerprint

import (
	"crypto/sha256"
	"encoding/binary"
	"unsafe"

	"sentinel/internal/machine"
)

// Key is the canonical request fingerprint: a sha256 over the tagged
// canonical serialization of the normalized request.
type Key = [sha256.Size]byte

// Endpoint tags keep the keyspaces disjoint: a schedule and a simulate of
// the same program must never collide. The values are pinned by the golden
// test — changing one invalidates every fleet/backend cache relationship.
const (
	TagSimulate = byte(1)
	TagSchedule = byte(2)
	TagFigures  = byte(3)
	TagRaw      = byte(4)
)

// Buf accumulates the canonical serialization on the stack — sized so a
// workload-cell request (the warm path) never allocates on its way to the
// sha256. Inline source is folded in as its own sha256, so source length
// does not matter.
type Buf struct {
	b []byte
	a [96]byte
}

// New starts a canonical serialization with the endpoint tag.
func New(tag byte) Buf {
	var f Buf
	f.b = append(f.a[:0], tag)
	return f
}

// Str folds a length-prefixed string in ("ab"+"c" != "a"+"bc").
func (f *Buf) Str(s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	f.b = append(f.b, n[:]...)
	f.b = append(f.b, s...)
}

// U64 folds a fixed-width little-endian integer in.
func (f *Buf) U64(v uint64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], v)
	f.b = append(f.b, n[:]...)
}

// Bool folds one byte, 0 or 1.
func (f *Buf) Bool(v bool) {
	if v {
		f.b = append(f.b, 1)
	} else {
		f.b = append(f.b, 0)
	}
}

// Bytes folds raw bytes in (callers own any length prefixing).
func (f *Buf) Bytes(p []byte) { f.b = append(f.b, p...) }

// Sum finishes the serialization.
func (f *Buf) Sum() Key { return sha256.Sum256(f.b) }

// MachineDesc folds every field of the resolved machine description in.
// Callers must have normalized aliases and defaults first (machine.Resolve),
// so equivalent requests share bytes here.
func (f *Buf) MachineDesc(md machine.Desc) {
	f.U64(uint64(md.IssueWidth))
	f.U64(uint64(md.StoreBuffer))
	f.U64(uint64(md.Model))
	f.Bool(md.Recovery)
	f.Bool(md.NoSharedSentinels)
	f.U64(uint64(md.BoostLevels))
	f.U64(uint64(md.Predictor))
	f.U64(uint64(md.MispredictPenalty))
}

// SourceSum is the content hash that names inline source in every key:
// the sha256 of its bytes, read in place rather than copied.
func SourceSum(source string) Key {
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(source), len(source)))
}

// Program folds the normalized program identity in: the workload name, and
// the content hash of inline source (never the source itself) unless
// source is nil.
func (f *Buf) Program(workload string, source *Key) {
	f.Str(workload)
	if source != nil {
		f.Bytes(source[:])
	}
}

// Simulate fingerprints a cacheable simulate request. Callers must have
// ruled out fault injection and Full runs before using this as a cache key
// (for routing, affinity by the underlying program×machine is exactly
// right even for uncacheable runs — the compile artifacts are shared).
func Simulate(workload, source string, md machine.Desc) Key {
	if source == "" {
		return SimulateSum(workload, nil, md)
	}
	sum := SourceSum(source)
	return SimulateSum(workload, &sum, md)
}

// SimulateSum is Simulate for a caller that already holds the source's
// SourceSum (nil without inline source).
func SimulateSum(workload string, source *Key, md machine.Desc) Key {
	f := New(TagSimulate)
	f.Program(workload, source)
	f.MachineDesc(md)
	return f.Sum()
}

// Schedule fingerprints a schedule request (always deterministic).
func Schedule(workload, source string, md machine.Desc, form bool) Key {
	if source == "" {
		return ScheduleSum(workload, nil, md, form)
	}
	sum := SourceSum(source)
	return ScheduleSum(workload, &sum, md, form)
}

// ScheduleSum is Schedule for a caller that already holds the source's
// SourceSum (nil without inline source).
func ScheduleSum(workload string, source *Key, md machine.Desc, form bool) Key {
	f := New(TagSchedule)
	f.Program(workload, source)
	f.MachineDesc(md)
	f.Bool(form)
	return f.Sum()
}

// Figures fingerprints a figures request by its resolved section
// selection, in the fixed render order of eval.RenderSections.
func Figures(fig4, fig5, table3, overhead, recovery, buffer, faults, sharing, boost, prediction bool) Key {
	f := New(TagFigures)
	f.Bool(fig4)
	f.Bool(fig5)
	f.Bool(table3)
	f.Bool(overhead)
	f.Bool(recovery)
	f.Bool(buffer)
	f.Bool(faults)
	f.Bool(sharing)
	f.Bool(boost)
	f.Bool(prediction)
	return f.Sum()
}

// RawRequest fingerprints a request exactly as received: path, query and
// body bytes. Two requests with the same raw key are indistinguishable on
// the wire, so serving the first one's cached bytes to the second is
// trivially byte-identical — without decoding anything. Textual variants of
// the same logical request (field order, whitespace, defaulted fields) miss
// here and fall through to the canonical keys above. Only the tagged,
// length-prefixed head is serialized, on the stack for a short path and
// query; the body is hashed in place.
func RawRequest(path, rawQuery string, body []byte) Key {
	var a [96]byte
	head := append(a[:0], TagRaw)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(path)))
	head = append(head, path...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(rawQuery)))
	head = append(head, rawQuery...)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(body)))
	h := sha256.New()
	h.Write(head)
	h.Write(body)
	var k Key
	h.Sum(k[:0])
	return k
}

// RawRequestInto is RawRequest for callers that carry scratch from one
// request to the next; RawRequest needs none, so scratch is returned as
// given.
func RawRequestInto(scratch []byte, path, rawQuery string, body []byte) (Key, []byte) {
	return RawRequest(path, rawQuery, body), scratch
}
