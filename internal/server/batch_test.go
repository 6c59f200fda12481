package server

// Batched request path coverage: the framing of the /v1/batch stream, the
// byte-identity contract against the single-request endpoints (the property
// that makes batching transparent to adopt), partial-failure isolation,
// admission accounting, deadlines, and the warm-element allocation budget.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sentinel/internal/obs"
	"sentinel/internal/workload"
)

// batchFrame is one parsed element of a /v1/batch response stream.
type batchFrame struct {
	status  int
	payload []byte
}

// parseBatchStream decodes the element-per-element framing: one
// {"index","status","bytes"} header line followed by exactly that many
// payload bytes, repeated, then a {"done":true,"elements":N} trailer.
func parseBatchStream(t *testing.T, body []byte) map[int]batchFrame {
	t.Helper()
	frames := map[int]batchFrame{}
	rest := body
	for {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			t.Fatalf("unterminated header line: %q", rest)
		}
		line, after := rest[:nl+1], rest[nl+1:]
		var hdr struct {
			Index    *int `json:"index"`
			Status   int  `json:"status"`
			Bytes    int  `json:"bytes"`
			Done     bool `json:"done"`
			Elements int  `json:"elements"`
		}
		if err := json.Unmarshal(line, &hdr); err != nil {
			t.Fatalf("bad header line %q: %v", line, err)
		}
		if hdr.Done {
			if len(after) != 0 {
				t.Fatalf("%d bytes after the trailer: %q", len(after), after)
			}
			if hdr.Elements != len(frames) {
				t.Fatalf("trailer elements = %d, parsed %d", hdr.Elements, len(frames))
			}
			return frames
		}
		if hdr.Index == nil {
			t.Fatalf("element header without index: %q", line)
		}
		if len(after) < hdr.Bytes {
			t.Fatalf("element %d: payload truncated (%d of %d bytes)", *hdr.Index, len(after), hdr.Bytes)
		}
		if _, dup := frames[*hdr.Index]; dup {
			t.Fatalf("element %d emitted twice", *hdr.Index)
		}
		frames[*hdr.Index] = batchFrame{status: hdr.Status,
			payload: append([]byte(nil), after[:hdr.Bytes]...)}
		rest = after[hdr.Bytes:]
	}
}

// testBatchItem mirrors the request-side element shape.
type testBatchItem struct {
	Op      string          `json:"op,omitempty"`
	Request json.RawMessage `json:"request"`
}

func postBatch(t *testing.T, url string, items []testBatchItem) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestBatchByteIdenticalToSingleEndpoints is the core contract across every
// workload: for each benchmark, a batched simulate and a batched schedule
// element must return byte-for-byte what the single-request endpoints
// return for the same body. The batch runs on its own server (all-cold) and
// again warm, so identity holds on both serving tiers; the singles run on a
// second, independent server so neither side can serve the other's cache.
func TestBatchByteIdenticalToSingleEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload")
	}
	_, single := newTestServer(t, Config{Workers: 4})
	_, batched := newTestServer(t, Config{Workers: 4})

	var items []testBatchItem
	var want [][]byte
	for _, b := range workload.All() {
		simBody := fmt.Sprintf(`{"workload":%q,"model":"sentinel+stores","width":8}`, b.Name)
		schedBody := fmt.Sprintf(`{"workload":%q,"model":"sentinel","width":4}`, b.Name)
		items = append(items,
			testBatchItem{Request: json.RawMessage(simBody)},
			testBatchItem{Op: "schedule", Request: json.RawMessage(schedBody)})
		resp, out := postRawURL(t, single.URL+"/v1/simulate", simBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s single simulate: %d %s", b.Name, resp.StatusCode, out)
		}
		want = append(want, out)
		resp, out = postRawURL(t, single.URL+"/v1/schedule", schedBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s single schedule: %d %s", b.Name, resp.StatusCode, out)
		}
		want = append(want, out)
	}

	for _, tier := range []string{"cold", "warm"} {
		resp, body := postBatch(t, batched.URL, items)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s batch: %d %s", tier, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != batchContentType {
			t.Errorf("Content-Type = %q, want %q", ct, batchContentType)
		}
		frames := parseBatchStream(t, body)
		if len(frames) != len(items) {
			t.Fatalf("%s batch: %d elements, want %d", tier, len(frames), len(items))
		}
		for i := range items {
			fr, ok := frames[i]
			if !ok {
				t.Fatalf("%s batch: element %d missing", tier, i)
			}
			if fr.status != http.StatusOK {
				t.Errorf("%s element %d: status %d: %s", tier, i, fr.status, fr.payload)
			}
			if !bytes.Equal(fr.payload, want[i]) {
				t.Errorf("%s element %d: payload differs from single endpoint\nbatch:  %s\nsingle: %s",
					tier, i, fr.payload, want[i])
			}
		}
	}
}

// postRawURL posts exact body bytes over the network (postJSON would
// re-marshal them; the handler-level postRaw skips the wire).
func postRawURL(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestBatchPartialFailure: one fault-injected element among 63 good ones
// yields 63 successes plus one tagged structured 422 — byte-identical to
// what the single endpoint returns for the same fault — never a dropped or
// failed batch.
func TestBatchPartialFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("uncached fault simulation")
	}
	s, batched := newTestServer(t, Config{Workers: 4})
	_, single := newTestServer(t, Config{Workers: 4})

	seg := faultSegment(t, s, mustWorkload(t, "cmp"))
	faultBody := fmt.Sprintf(`{"workload":"cmp","model":"sentinel","width":8,"fault_segment":%q}`, seg)
	const faultIdx = 40

	all := workload.All()
	items := make([]testBatchItem, 64)
	for i := range items {
		if i == faultIdx {
			items[i] = testBatchItem{Request: json.RawMessage(faultBody)}
			continue
		}
		b := all[i%len(all)]
		width := 2 << (i / len(all) % 3) // 2, 4, 8: distinct cells per repeat
		items[i] = testBatchItem{Request: json.RawMessage(
			fmt.Sprintf(`{"workload":%q,"model":"sentinel","width":%d}`, b.Name, width))}
	}

	resp, body := postBatch(t, batched.URL, items)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with one faulted element must still be a 200 frame: %d %s", resp.StatusCode, body)
	}
	frames := parseBatchStream(t, body)
	if len(frames) != 64 {
		t.Fatalf("%d elements, want 64", len(frames))
	}
	for i, fr := range frames {
		if i == faultIdx {
			continue
		}
		if fr.status != http.StatusOK {
			t.Errorf("element %d: status %d, want 200: %s", i, fr.status, fr.payload)
		}
	}
	fault := frames[faultIdx]
	if fault.status != http.StatusUnprocessableEntity {
		t.Fatalf("faulted element: status %d, want 422: %s", fault.status, fault.payload)
	}
	ae := decodeError(t, fault.payload)
	if ae.Kind != KindSentinelException {
		t.Errorf("faulted element kind = %q, want %q", ae.Kind, KindSentinelException)
	}
	singleResp, singleBody := postRawURL(t, single.URL+"/v1/simulate", faultBody)
	if singleResp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("single fault request: %d %s", singleResp.StatusCode, singleBody)
	}
	if !bytes.Equal(fault.payload, singleBody) {
		t.Errorf("faulted element payload differs from single endpoint\nbatch:  %s\nsingle: %s",
			fault.payload, singleBody)
	}
}

// TestBatchVirtualRegisterElements: two elements whose inline source names
// a virtual register each fail alone with the single endpoint's 422, and
// the repeated batch answers the same from the source cache.
func TestBatchVirtualRegisterElements(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, RequestTimeout: 2 * time.Second})
	req, err := json.Marshal(map[string]any{"source": virtualSource, "model": "sentinel"})
	if err != nil {
		t.Fatal(err)
	}
	items := []testBatchItem{{Op: "schedule", Request: req}, {Op: "simulate", Request: req}}
	for i := 0; i < 2; i++ {
		resp, body := postBatch(t, ts.URL, items)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d, want a 200 frame: %s", i, resp.StatusCode, body)
		}
		frames := parseBatchStream(t, body)
		if len(frames) != len(items) {
			t.Fatalf("batch %d: %d elements, want %d", i, len(frames), len(items))
		}
		for j, fr := range frames {
			checkAssemblyError(t, fmt.Sprintf("batch %d element %d", i, j), fr.status, fr.payload)
		}
	}
}

// TestBatchElementErrorsAreTagged: undecodable and unknown-workload
// elements fail alone, with the endpoint's own envelope, inside a 200
// frame.
func TestBatchElementErrorsAreTagged(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	items := []testBatchItem{
		{Request: json.RawMessage(`{"workload":"cmp","model":"sentinel","width":8}`)},
		{Request: json.RawMessage(`{"workload":"no-such-kernel"}`)},
		{Request: json.RawMessage(`{"not_a_field":1}`)},
		{Request: nil}, // missing request body entirely
	}
	resp, body := postBatch(t, ts.URL, items)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
	frames := parseBatchStream(t, body)
	wantStatus := map[int]int{
		0: http.StatusOK,
		1: http.StatusNotFound,
		2: http.StatusBadRequest,
		3: http.StatusBadRequest,
	}
	wantKind := map[int]string{1: KindUnknownWorkload, 2: KindBadRequest, 3: KindBadRequest}
	for i, want := range wantStatus {
		fr, ok := frames[i]
		if !ok {
			t.Fatalf("element %d missing", i)
		}
		if fr.status != want {
			t.Errorf("element %d: status %d, want %d: %s", i, fr.status, want, fr.payload)
		}
		if kind, ok := wantKind[i]; ok {
			if ae := decodeError(t, fr.payload); ae.Kind != kind {
				t.Errorf("element %d: kind %q, want %q", i, ae.Kind, kind)
			}
		}
	}
}

// TestBatchRequestValidation: an empty array, an oversized batch, an
// unknown op and a non-array body are batch-level 400s.
func TestBatchRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"empty array", `[]`},
		{"not an array", `{"op":"simulate"}`},
		{"unknown op", `[{"op":"divine","request":{}}]`},
		{"oversized", "[" + strings.Repeat(`{"request":{}},`, maxBatchElems) + `{"request":{}}]`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postRawURL(t, ts.URL+"/v1/batch", c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			if ae := decodeError(t, body); ae.Kind != KindBadRequest {
				t.Errorf("kind = %q, want %q", ae.Kind, KindBadRequest)
			}
		})
	}
}

// TestBatchOneAdmissionSlot: a batch occupies exactly one admission slot,
// so a server with MaxInFlight=1 and no queue still completes a 32-element
// batch — if each element charged admission, the batch would deadlock or
// overflow into 429s.
func TestBatchOneAdmissionSlot(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxInFlight: 1, MaxQueue: 0})
	all := workload.All()
	items := make([]testBatchItem, 32)
	for i := range items {
		items[i] = testBatchItem{Request: json.RawMessage(
			fmt.Sprintf(`{"workload":%q,"model":"sentinel","width":8}`, all[i%len(all)].Name))}
	}
	resp, body := postBatch(t, ts.URL, items)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
	frames := parseBatchStream(t, body)
	for i := range items {
		if frames[i].status != http.StatusOK {
			t.Errorf("element %d: status %d: %s", i, frames[i].status, frames[i].payload)
		}
	}
}

// TestBatchDeadlineFillsRemainingElements: a batch whose deadline expires
// mid-frame still delivers every promised element — the unrun tail carries
// the structured timeout envelope, and the frame terminates cleanly.
func TestBatchDeadlineFillsRemainingElements(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	all := workload.All()
	items := make([]testBatchItem, 64)
	for i := range items {
		// full:true forces an uncached simulation per element; 64 of them
		// across every workload take well over the 1ms deadline, so the
		// batch always expires mid-frame.
		width := 2 << (i / len(all) % 3)
		items[i] = testBatchItem{Request: json.RawMessage(
			fmt.Sprintf(`{"workload":%q,"model":"sentinel","width":%d,"full":true}`, all[i%len(all)].Name, width))}
	}
	b, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch?timeout_ms=1", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (the frame started streaming): %s", resp.StatusCode, body)
	}
	frames := parseBatchStream(t, body)
	if len(frames) != len(items) {
		t.Fatalf("%d elements, want all %d (timed-out elements must be filled in)", len(frames), len(items))
	}
	timedOut := 0
	for i, fr := range frames {
		switch fr.status {
		case http.StatusOK:
		case http.StatusGatewayTimeout:
			timedOut++
			if ae := decodeError(t, fr.payload); ae.Kind != KindTimeout {
				t.Errorf("element %d: kind %q, want %q", i, ae.Kind, KindTimeout)
			}
		default:
			t.Errorf("element %d: status %d, want 200 or 504: %s", i, fr.status, fr.payload)
		}
	}
	if timedOut == 0 {
		t.Error("no element timed out under a 1ms deadline over 8 full simulations")
	}
}

// TestBatchDrainingRefused: a draining server refuses new batches with the
// same 503 envelope as single requests.
func TestBatchDrainingRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.StartDrain()
	resp, body := postBatch(t, ts.URL, []testBatchItem{
		{Request: json.RawMessage(`{"workload":"cmp"}`)}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if ae := decodeError(t, body); ae.Kind != KindDraining {
		t.Errorf("kind = %q, want %q", ae.Kind, KindDraining)
	}
}

// TestBatchCrossWarmsSingleEndpoint: a batched element's cache fill is
// keyed exactly like a single request with the same body bytes, so a batch
// warms the single-request raw fast path (and vice versa).
func TestBatchCrossWarmsSingleEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	body := `{"workload":"wc","model":"sentinel","width":8}`
	resp, out := postBatch(t, ts.URL, []testBatchItem{{Request: json.RawMessage(body)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, out)
	}
	if s.resp.Len() == 0 {
		t.Fatal("batched element did not fill the response cache")
	}
	hitsBefore := s.resp.hits.Load()
	singleResp, singleBody := postRawURL(t, ts.URL+"/v1/simulate", body)
	if singleResp.StatusCode != http.StatusOK {
		t.Fatalf("single: %d %s", singleResp.StatusCode, singleBody)
	}
	if s.resp.hits.Load() == hitsBefore {
		t.Error("single request after an identical batched element was not a cache hit")
	}
	frames := parseBatchStream(t, out)
	if !bytes.Equal(frames[0].payload, singleBody) {
		t.Errorf("cross-warmed bytes differ\nbatch:  %s\nsingle: %s", frames[0].payload, singleBody)
	}
}

// discardRW is a ResponseWriter that counts nothing and keeps nothing —
// the allocation benchmark must measure the batch path, not the recorder.
type discardRW struct{ hdr http.Header }

func (d *discardRW) Header() http.Header {
	if d.hdr == nil {
		d.hdr = make(http.Header, 2)
	}
	return d.hdr
}
func (d *discardRW) WriteHeader(int)             {}
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }

// TestBatchWarmAllocs pins the satellite budget: a warm batch element —
// probe, cache hit, framing — costs at most 2 allocations, measured over a
// full 64-element handleBatch call (the per-call constant is charged to the
// same budget). Skipped under the race detector, which adds allocations.
// TestBatchCoalescesDuplicateElements: byte-identical cold elements in one
// frame run once and share the leader's envelope — every duplicate still
// gets its own tagged frame with the exact single-endpoint bytes — while
// full:true duplicates (the escape hatch past every cache) are exempt and
// each run individually. The coalesced count is observable as a counter.
func TestBatchCoalescesDuplicateElements(t *testing.T) {
	reg := obs.NewRegistry()
	_, batched := newTestServer(t, Config{Workers: 2, Registry: reg, RespCacheEntries: -1})
	_, single := newTestServer(t, Config{Workers: 2})

	bodyA := `{"workload":"cmp","model":"sentinel+stores","width":8}`
	bodyB := `{"workload":"wc","model":"sentinel","width":4}`
	bodyFull := `{"workload":"cmp","model":"sentinel","width":4,"full":true}`
	var items []testBatchItem
	for _, b := range []string{bodyA, bodyB, bodyA, bodyFull, bodyA, bodyB, bodyFull} {
		items = append(items, testBatchItem{Request: json.RawMessage(b)})
	}

	resp, out := postBatch(t, batched.URL, items)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, out)
	}
	frames := parseBatchStream(t, out)
	if len(frames) != len(items) {
		t.Fatalf("got %d elements, want %d", len(frames), len(items))
	}
	for i, body := range []string{bodyA, bodyB, bodyA, bodyFull, bodyA, bodyB, bodyFull} {
		f, ok := frames[i]
		if !ok {
			t.Fatalf("element %d missing from stream", i)
		}
		if f.status != http.StatusOK {
			t.Fatalf("element %d status %d: %s", i, f.status, f.payload)
		}
		sresp, sout := postRawURL(t, single.URL+"/v1/simulate", body)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("single %d: %d %s", i, sresp.StatusCode, sout)
		}
		if !bytes.Equal(f.payload, sout) {
			t.Errorf("element %d bytes differ from single endpoint\nbatch:  %s\nsingle: %s",
				i, f.payload, sout)
		}
	}

	// bodyA ×3 and bodyB ×2 coalesce to one run each (1+2 twins); the two
	// full:true duplicates must not.
	if got := reg.Counter("server.batch_coalesced").Value(); got != 3 {
		t.Errorf("batch_coalesced = %d, want 3", got)
	}
}

func TestBatchWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("primes 64 cold elements")
	}
	s := New(Config{Workers: 1})
	all := workload.All()
	items := make([]testBatchItem, 64)
	for i := range items {
		width := 2 << (i / len(all) % 3)
		items[i] = testBatchItem{Request: json.RawMessage(
			fmt.Sprintf(`{"workload":%q,"model":"sentinel","width":%d}`, all[i%len(all)].Name, width))}
	}
	body, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		w := &discardRW{}
		r, _ := http.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		if err := s.handleBatch(w, r); err != nil {
			t.Fatal(err)
		}
	}
	run() // prime: all 64 elements cold → respcache rows filled
	allocs := testing.AllocsPerRun(50, run)
	if budget := float64(2 * len(items)); allocs > budget {
		t.Errorf("warm 64-element batch = %.1f allocs (%.2f/element), budget %.0f (2/element)",
			allocs, allocs/float64(len(items)), budget)
	}
}
