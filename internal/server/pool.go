package server

// Per-request state pools: the body scratch, request structs, append
// scratch and the error-envelope encoder, recycled so that allocator
// traffic is not paid again on every request. Encoders are pooled together
// with their buffer (a json.Encoder is bound to its writer at construction
// and remembers a write error forever, so a pair that ever failed is
// dropped rather than recycled).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// jsonEnc is a reusable encode buffer + encoder pair. The encoder writes
// into buf and is configured once with the API's indentation, so pooled and
// fresh pairs produce byte-identical output.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// getEnc returns a ready pair with an empty buffer.
func getEnc() *jsonEnc {
	e := encPool.Get().(*jsonEnc)
	e.buf.Reset()
	return e
}

// putEnc recycles a pair whose last Encode succeeded. Callers that hit an
// encode error must drop the pair instead: json.Encoder latches its first
// error and would fail every future encode.
func putEnc(e *jsonEnc) { encPool.Put(e) }

// bodyScratch is the pooled state for holding a request body in memory: on
// the v1 fast path, the accumulation buffer the body is slurped into and the
// limit reader bounding it; for a batch element, its payload. held is the
// body's bytes and rd hands them back to anything that reads r.Body. The
// scratch is itself the replacement r.Body (Read delegates to rd, Close is a
// no-op — the HTTP server closes the original body on its own), so a warm
// request allocates nothing while reading, keying and restoring its body,
// and decoding reads held in place (heldBytes).
type bodyScratch struct {
	buf  bytes.Buffer
	lim  io.LimitedReader
	rd   bytes.Reader
	held []byte
}

func (s *bodyScratch) Read(p []byte) (int, error) { return s.rd.Read(p) }
func (s *bodyScratch) Close() error               { return nil }

// hold makes b the body's bytes.
func (s *bodyScratch) hold(b []byte) {
	s.held = b
	s.rd.Reset(b)
}

var bodyScratchPool = sync.Pool{New: func() any { return new(bodyScratch) }}

func getBodyScratch() *bodyScratch {
	s := bodyScratchPool.Get().(*bodyScratch)
	s.buf.Reset()
	return s
}

// putBodyScratch recycles the scratch. Callers must be done with the bytes
// AND with any r.Body aliasing it — in practice: call at v1-wrapper exit.
func putBodyScratch(s *bodyScratch) {
	s.lim.R = nil
	s.hold(nil)
	bodyScratchPool.Put(s)
}

// heldBytes returns r's body bytes when a bodyScratch already holds them
// (at most MaxBodyBytes), so decoding needs no read.
func heldBytes(r *http.Request) ([]byte, bool) {
	if sc, ok := r.Body.(*bodyScratch); ok {
		return sc.held, true
	}
	return nil, false
}

// frameBuf is the pooled append scratch for encoding: element header lines
// on the /v1/batch chunk stream and wire frame headers alike are appended
// into b and written out in one Write, so a warm batch element performs no
// per-element allocation on its way to the socket; response encoders append
// into it too.
type frameBuf struct{ b []byte }

var frameBufPool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 512)} }}

func getFrameBuf() *frameBuf { return frameBufPool.Get().(*frameBuf) }

// putFrameBuf recycles the scratch; buffers grown past 64 KiB (a large
// listing, a pathological error-frame message) are dropped so one outlier
// cannot pin memory in the pool.
func putFrameBuf(f *frameBuf) {
	if cap(f.b) > 64<<10 {
		return
	}
	frameBufPool.Put(f)
}

// Request struct pools. Gets return a zeroed value (the previous
// request's strings and slices must never leak into this one); puts are
// unconditional — the structs hold no resources, only garbage.

var simReqPool = sync.Pool{New: func() any { return new(SimulateRequest) }}

func getSimReq() *SimulateRequest {
	req := simReqPool.Get().(*SimulateRequest)
	*req = SimulateRequest{}
	return req
}

func putSimReq(req *SimulateRequest) { simReqPool.Put(req) }

var schedReqPool = sync.Pool{New: func() any { return new(ScheduleRequest) }}

func getSchedReq() *ScheduleRequest {
	req := schedReqPool.Get().(*ScheduleRequest)
	*req = ScheduleRequest{}
	return req
}

func putSchedReq(req *ScheduleRequest) { schedReqPool.Put(req) }
