package server

// The batched request path: many schedule/simulate requests per round trip,
// results streamed back as they complete. Two entry points share this one
// implementation — POST /v1/batch (handleBatch, a JSON array answered as a
// chunked element-per-element stream) and the length-prefixed binary
// protocol (wireserver.go) — both reducing to []batchElem and runBatch.
//
// The contract that makes batching safe to adopt incrementally: an element's
// payload bytes are exactly what the single-request endpoint would have
// written for the same request body — success envelope, error envelope,
// trailing newline and all. That holds by construction, because a cold
// element runs through the very handler that serves the endpoint (via a
// captured ResponseWriter) and a warm element is served from the same
// response-byte cache rows, keyed by the same raw-request fingerprint a
// single request would have filled.
//
// Cost model: one admission slot per batch (the batch is the unit of
// admission, as a frame is the paper's unit of issue), one respcache probe
// per element (warm elements never touch the pipeline), in-frame
// coalescing of byte-identical cold elements (one execution per distinct
// request, twins get the bytes copied), and one fan-out across the
// Runner's worker pool for the distinct misses — so a batch of N cold
// requests pays one round trip of framing, decode and admission instead
// of N, and only as many pipeline walks as it has distinct requests.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"sentinel/internal/obs"
	"sentinel/internal/wire"
)

// maxBatchElems bounds one batch on both entry points; it matches the wire
// decoder's default element limit.
const maxBatchElems = 1024

// coalesceOptOut* mark request bodies that must never be answered by an
// in-frame twin: "full" forces a fresh simulation and "fault_segment"
// injects a fault, and both are documented as reaching past every cache.
// Matching the raw bytes keeps the check ahead of any decode.
var (
	coalesceOptOutFull  = []byte(`"full"`)
	coalesceOptOutFault = []byte(`"fault_segment"`)
)

// CacheOptOut reports whether raw request-body bytes name one of the two
// documented cache escape hatches — a "full" forced re-simulation or an
// injected "fault_segment". Exported for the fleet router, whose response
// cache must honor exactly the bypass discipline the backends do. The sniff
// is conservative: a spelled-out "full":false merely forfeits caching, it
// never causes a wrong answer.
func CacheOptOut(body []byte) bool {
	return bytes.Contains(body, coalesceOptOutFull) || bytes.Contains(body, coalesceOptOutFault)
}

// batchContentType marks the /v1/batch response stream: a sequence of
// header-line + payload element frames, not one JSON document.
const batchContentType = "application/x-sentinel-batch"

// batchItem is one element of the /v1/batch JSON array: which
// single-request endpoint it addresses, and that endpoint's request body
// passed through undecoded — the element handler decodes it exactly as the
// endpoint itself would, unknown-field rejection included.
type batchItem struct {
	// Op is "simulate" (the default when omitted) or "schedule".
	Op string `json:"op,omitempty"`
	// Request is the single-endpoint JSON request body, verbatim.
	Request json.RawMessage `json:"request"`
}

// batchElem is the protocol-neutral element both entry points reduce to.
type batchElem struct {
	payload []byte
	tag     uint32 // client-chosen (wire) or array index (HTTP); echoed back
	op      byte   // wire.OpSimulate or wire.OpSchedule
}

// path returns the single-request endpoint this element addresses — also
// the path component of its raw-request cache key, which is what lets
// batched and unbatched repeats of the same body warm each other.
func (e batchElem) path() string {
	if e.op == wire.OpSchedule {
		return "/v1/schedule"
	}
	return "/v1/simulate"
}

// batchOp maps the JSON op name onto the wire opcode.
func batchOp(op string) (byte, error) {
	switch op {
	case "", "simulate":
		return wire.OpSimulate, nil
	case "schedule":
		return wire.OpSchedule, nil
	default:
		return 0, apiErrorf(http.StatusBadRequest, KindBadRequest,
			"unknown op %q (want simulate, schedule)", op)
	}
}

// captureWriter is the http.ResponseWriter a batch element's handler writes
// into: status and body land in memory and are re-framed by the entry
// point. Pooled; one Get per cold element.
type captureWriter struct {
	buf    bytes.Buffer
	hdr    http.Header
	status int
}

func (c *captureWriter) Header() http.Header {
	if c.hdr == nil {
		c.hdr = make(http.Header, 2)
	}
	return c.hdr
}

func (c *captureWriter) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	return c.buf.Write(p)
}

func (c *captureWriter) statusCode() int {
	if c.status == 0 {
		return http.StatusOK
	}
	return c.status
}

var capturePool = sync.Pool{New: func() any { return new(captureWriter) }}

func getCapture() *captureWriter {
	c := capturePool.Get().(*captureWriter)
	c.buf.Reset()
	c.status = 0
	for k := range c.hdr {
		delete(c.hdr, k)
	}
	return c
}

func putCapture(c *captureWriter) { capturePool.Put(c) }

// execElement runs one cold element through the same handler that serves
// its single-request endpoint, so the captured bytes are byte-identical to
// an unbatched response — error envelopes included (a fault-injected
// element is a tagged 422 inside a successful frame, never a dropped
// batch). The element's raw-request key is threaded through the context so
// the handler's cache fill warms future batched and unbatched repeats of
// these exact bytes alike.
func (s *Server) execElement(ctx context.Context, e batchElem) *captureWriter {
	path := e.path()
	if s.resp != nil {
		ctx = context.WithValue(ctx, rawKeyCtxKey{}, rawRequestKey(path, "", e.payload))
	}
	cw := getCapture()
	body := getBodyScratch()
	defer putBodyScratch(body)
	body.hold(e.payload)
	r := (&http.Request{
		Method:        http.MethodPost,
		URL:           &url.URL{Path: path},
		Body:          body,
		ContentLength: int64(len(e.payload)),
	}).WithContext(ctx)
	h := s.handleSimulate
	if e.op == wire.OpSchedule {
		h = s.handleSchedule
	}
	if err := h(cw, r); err != nil {
		cw.buf.Reset()
		cw.status = 0
		writeError(cw, err)
	}
	return cw
}

// runBatch is the shared batch engine. emit is called exactly once per
// element, serialized, in completion order; the body bytes are valid only
// for the duration of the call (they may alias a cache row or a pooled
// capture buffer). ctx carries the batch deadline and, optionally, the
// batch's flight-recorder record.
func (s *Server) runBatch(ctx context.Context, elems []batchElem, emit func(i, status int, body []byte)) {
	rd := obs.RecordFrom(ctx)

	// Warm probe: an element whose exact request bytes were answered before
	// is served straight from the response-byte cache — no decode, no
	// admission beyond the batch's own slot, no pipeline.
	cold := make([]int, 0, len(elems))
	rd.Start(obs.StageRespCache, obs.ArgRaw)
	for i := range elems {
		if body, _, ok := s.resp.Get(rawRequestKey(elems[i].path(), "", elems[i].payload)); ok {
			emit(i, http.StatusOK, body)
			continue
		}
		cold = append(cold, i)
	}
	rd.End()
	if len(cold) == 0 {
		return
	}

	// Coalescing: within one frame, cold elements with byte-identical op and
	// payload are the same deterministic computation — the determinism the
	// byte-identity contract already relies on — so only the first of each
	// group (the leader) runs; its twins get the leader's envelope copied
	// under the same serialization the leader's emit holds. Requests that
	// opt out of caching (a "full" re-simulation, an injected fault) are
	// sniffed out by raw bytes and always run individually, keeping the
	// escape hatch past every cache honest; the sniff is conservative, so a
	// spelled-out "full":false merely forfeits coalescing.
	runs := cold
	var twins [][]int // parallel to runs: element indices answered by runs[j]
	if len(cold) > 1 {
		runs = make([]int, 0, len(cold))
		twins = make([][]int, 0, len(cold))
		leader := make(map[string]int, len(cold))
		kb := getFrameBuf()
		for _, i := range cold {
			p := elems[i].payload
			if CacheOptOut(p) {
				runs = append(runs, i)
				twins = append(twins, nil)
				continue
			}
			kb.b = append(append(kb.b[:0], elems[i].op), p...)
			if j, ok := leader[string(kb.b)]; ok {
				twins[j] = append(twins[j], i)
				s.coalesced.Inc()
				continue
			}
			leader[string(kb.b)] = len(runs)
			runs = append(runs, i)
			twins = append(twins, nil)
		}
		putFrameBuf(kb)
	}

	// Cold fan-out: the misses pipeline through the Runner's worker pool. A
	// single element's failure becomes its own tagged envelope — fn never
	// returns an error, which would stop dispatch for its siblings. The
	// captured context must not carry the record (records are
	// single-goroutine; ParallelCtx strips its own copy but cannot reach the
	// closure's).
	runCtx := ctx
	if rd != nil {
		runCtx = obs.ContextWithRecord(runCtx, nil)
	}
	var mu sync.Mutex
	emitted := make([]bool, len(runs))
	rd.Start(obs.StageBatch, obs.ArgNone)
	s.runner.ParallelCtx(ctx, len(runs), func(j int) error { //nolint:errcheck // fn never errs; ctx expiry handled below
		cw := s.execElement(runCtx, elems[runs[j]])
		mu.Lock()
		emitted[j] = true
		emit(runs[j], cw.statusCode(), cw.buf.Bytes())
		if twins != nil {
			for _, i := range twins[j] {
				emit(i, cw.statusCode(), cw.buf.Bytes())
			}
		}
		mu.Unlock()
		putCapture(cw)
		return nil
	})
	rd.End()

	// The frame promised every element up front; a deadline that stopped
	// dispatch mid-batch leaves the unrun tail to be filled in with the
	// same structured timeout envelope a single request would have got.
	var lateBody []byte
	lateStatus := http.StatusGatewayTimeout
	for j, i := range runs {
		if emitted[j] {
			continue
		}
		if lateBody == nil {
			cw := getCapture()
			writeError(cw, context.Cause(ctx))
			lateStatus = cw.statusCode()
			lateBody = append([]byte(nil), cw.buf.Bytes()...)
			putCapture(cw)
		}
		emit(i, lateStatus, lateBody)
		if twins != nil {
			for _, t := range twins[j] {
				emit(t, lateStatus, lateBody)
			}
		}
	}
}

// handleBatch is POST /v1/batch: a JSON array of batch items, answered as a
// chunked stream framed per element —
//
//	{"index":i,"status":s,"bytes":n}\n   followed by exactly n payload bytes
//
// in completion order, then a {"done":true,"elements":N}\n trailer. Element
// payloads are the single-endpoint response bytes verbatim (newline-
// terminated JSON, so the stream stays line-readable). The v1 wrapper has
// already charged the batch its one admission slot and deadline.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	var items []batchItem
	if err := s.decodeRequest(w, r, &items); err != nil {
		return err
	}
	if len(items) == 0 {
		return apiErrorf(http.StatusBadRequest, KindBadRequest, "empty batch")
	}
	if len(items) > maxBatchElems {
		return apiErrorf(http.StatusBadRequest, KindBadRequest,
			"batch of %d elements exceeds limit %d", len(items), maxBatchElems)
	}
	elems := make([]batchElem, len(items))
	for i := range items {
		op, err := batchOp(items[i].Op)
		if err != nil {
			return err
		}
		elems[i] = batchElem{payload: items[i].Request, tag: uint32(i), op: op}
	}

	s.batches.Inc()
	s.batchElems.Add(int64(len(elems)))
	s.batchesInFlight.Add(1)
	defer s.batchesInFlight.Add(-1)

	w.Header().Set("Content-Type", batchContentType)
	flusher, _ := w.(http.Flusher)
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	n := 0
	s.runBatch(r.Context(), elems, func(i, status int, body []byte) {
		fb.b = append(fb.b[:0], `{"index":`...)
		fb.b = strconv.AppendInt(fb.b, int64(i), 10)
		fb.b = append(fb.b, `,"status":`...)
		fb.b = strconv.AppendInt(fb.b, int64(status), 10)
		fb.b = append(fb.b, `,"bytes":`...)
		fb.b = strconv.AppendInt(fb.b, int64(len(body)), 10)
		fb.b = append(fb.b, '}', '\n')
		w.Write(fb.b) //nolint:errcheck // client gone; remaining writes are no-ops
		w.Write(body) //nolint:errcheck
		n++
		if flusher != nil {
			flusher.Flush()
		}
	})
	fb.b = append(fb.b[:0], `{"done":true,"elements":`...)
	fb.b = strconv.AppendInt(fb.b, int64(n), 10)
	fb.b = append(fb.b, '}', '\n')
	w.Write(fb.b) //nolint:errcheck
	return nil
}
