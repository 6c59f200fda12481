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
	"sync/atomic"

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
//
// A panic inside the element is contained here: the element is answered
// with the 500 internal envelope, counted in server.panics, and reported
// through panicked, while its siblings run on — in a Runner worker an
// unrecovered panic would end the process.
func (s *Server) execElement(ctx context.Context, e batchElem) (cw *captureWriter, panicked bool) {
	path := e.path()
	if s.resp != nil {
		ctx = context.WithValue(ctx, rawKeyCtxKey{}, rawRequestKey(path, "", e.payload))
	}
	cw = getCapture()
	body := getBodyScratch()
	defer putBodyScratch(body)
	defer func() {
		if p := recover(); p != nil {
			s.panics.Inc()
			cw.buf.Reset()
			cw.status = 0
			writeError(cw, errPanicked)
			panicked = true
		}
	}()
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
	return cw, false
}

// batchSink receives a batch's answers for one entry point. put frames one
// element into the current run, which may buffer it; flush sends the run
// to the client. runBatch calls both serialized, put exactly once per
// element in completion order; the body bytes are valid only for the
// duration of put (they may alias a cache row or a pooled capture buffer).
type batchSink interface {
	put(i, status int, body []byte)
	flush()
}

// runBatch is the shared batch engine. It writes each run of ready
// elements at once and never holds a ready element back for one that is
// still running: the warm hits go out together after the probe, and a
// cold element is flushed as soon as no other completed element is
// waiting to be put behind it. The last element is never flushed here —
// the caller ends the response right after, and its trailer rides the same
// write. ctx carries the batch deadline and, optionally, the batch's
// flight-recorder record, which is marked as an error when an element
// panicked.
func (s *Server) runBatch(ctx context.Context, elems []batchElem, out batchSink) {
	rd := obs.RecordFrom(ctx)

	// Warm probe: an element whose exact request bytes were answered before
	// is served straight from the response-byte cache — no decode, no
	// admission beyond the batch's own slot, no pipeline.
	cold := make([]int, 0, len(elems))
	rd.Start(obs.StageRespCache, obs.ArgRaw)
	for i := range elems {
		if body, _, ok := s.resp.Get(rawRequestKey(elems[i].path(), "", elems[i].payload)); ok {
			out.put(i, http.StatusOK, body)
			continue
		}
		cold = append(cold, i)
	}
	rd.End()
	if len(cold) == 0 {
		return
	}
	if len(cold) < len(elems) {
		out.flush()
	}

	// Coalescing: within one frame, cold elements with byte-identical op and
	// payload are the same deterministic computation — the determinism the
	// byte-identity contract already relies on — so only the first of each
	// group (the leader) runs; its twins get the leader's envelope copied
	// under the same serialization the leader's put holds. Requests that
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
	// closure's). waiting counts elements that have completed but not yet
	// been put; the goroutine that puts an element flushes only when it is
	// zero, so a completed element is always either flushed or behind the
	// put of a goroutine that will flush.
	runCtx := ctx
	if rd != nil {
		runCtx = obs.ContextWithRecord(runCtx, nil)
	}
	var mu sync.Mutex
	var waiting atomic.Int32
	left := len(cold) // elements not yet put, under mu
	panicked := false
	emitted := make([]bool, len(runs))
	rd.Start(obs.StageBatch, obs.ArgNone)
	s.runner.ParallelCtx(ctx, len(runs), func(j int) error { //nolint:errcheck // fn never errs; ctx expiry handled below
		cw, p := s.execElement(runCtx, elems[runs[j]])
		waiting.Add(1)
		mu.Lock()
		waiting.Add(-1)
		emitted[j] = true
		panicked = panicked || p
		out.put(runs[j], cw.statusCode(), cw.buf.Bytes())
		left--
		if twins != nil {
			for _, i := range twins[j] {
				out.put(i, cw.statusCode(), cw.buf.Bytes())
				left--
			}
		}
		if left > 0 && waiting.Load() == 0 {
			out.flush()
		}
		mu.Unlock()
		putCapture(cw)
		return nil
	})
	rd.End()
	if panicked {
		rd.MarkError()
	}

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
		out.put(i, lateStatus, lateBody)
		if twins != nil {
			for _, t := range twins[j] {
				out.put(t, lateStatus, lateBody)
			}
		}
	}
}

// batchHeaderMax bounds one /v1/batch element header line: three decimal
// ints and the fixed JSON around them.
const batchHeaderMax = 64

// httpBatchSink frames /v1/batch elements into a run buffer and sends each
// run with one ResponseWriter.Write — which net/http passes to the socket
// in about two syscalls however long the run, where element-by-element
// Writes go through its 4 KiB buffer one slice at a time. A run that would
// outgrow frameBufCap is written out early, so the pooled buffer never
// grows past what the pool keeps.
type httpBatchSink struct {
	w       http.ResponseWriter
	flusher http.Flusher
	fb      *frameBuf
	n       int // elements put
}

func (h *httpBatchSink) put(i, status int, body []byte) {
	h.n++
	if !h.fb.room(batchHeaderMax + len(body)) {
		h.write()
		if !h.fb.room(batchHeaderMax + len(body)) {
			// Larger than any run: header and body go out as they are.
			h.appendHeader(i, status, len(body))
			h.write()
			h.w.Write(body) //nolint:errcheck // client gone; remaining writes are no-ops
			return
		}
	}
	h.appendHeader(i, status, len(body))
	h.fb.b = append(h.fb.b, body...)
}

func (h *httpBatchSink) appendHeader(i, status, n int) {
	b := append(h.fb.b, `{"index":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	h.fb.b = append(b, '}', '\n')
}

// write hands the buffered run to the ResponseWriter.
func (h *httpBatchSink) write() {
	if len(h.fb.b) > 0 {
		h.w.Write(h.fb.b) //nolint:errcheck // client gone; remaining writes are no-ops
		h.fb.b = h.fb.b[:0]
	}
}

func (h *httpBatchSink) flush() {
	h.write()
	if h.flusher != nil {
		h.flusher.Flush()
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
	out := &httpBatchSink{w: w, fb: getFrameBuf()}
	defer putFrameBuf(out.fb)
	out.fb.b = out.fb.b[:0]
	out.flusher, _ = w.(http.Flusher)
	s.runBatch(r.Context(), elems, out)
	if !out.fb.room(batchHeaderMax) {
		out.write()
	}
	out.fb.b = append(out.fb.b, `{"done":true,"elements":`...)
	out.fb.b = strconv.AppendInt(out.fb.b, int64(out.n), 10)
	out.fb.b = append(out.fb.b, '}', '\n')
	out.write()
	return nil
}
