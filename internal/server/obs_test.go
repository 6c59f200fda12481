package server

// Observability wiring tests: request-ID echo on every response shape, the
// /metrics exposition, the flight-recorder debug endpoints, and the warm-path
// allocation budget with the recorder armed.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sentinel/internal/obs"
)

// quietRecorder samples nothing on its own: no slow threshold in reach, a
// 1-in-2^30 warm/tail rate. Errors still sample (always-on), which is what
// the error-path tests rely on.
func quietRecorder() *obs.Recorder {
	return obs.NewRecorder(obs.RecorderConfig{Entries: 64, Slow: time.Hour, Every: 1 << 30})
}

// eagerRecorder samples every request.
func eagerRecorder() *obs.Recorder {
	return obs.NewRecorder(obs.RecorderConfig{Entries: 64, Slow: time.Hour, Every: 1})
}

func postJSONWithID(t *testing.T, url, id string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	resp, err := http.DefaultClient.Do(req)
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

func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Recorder: quietRecorder()})
	simReq := map[string]any{"workload": "cmp", "model": "sentinel", "width": 4}

	// Cold request with a client-supplied ID: echoed verbatim.
	resp, body := postJSONWithID(t, ts.URL+"/v1/simulate", "client-id-1", simReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(requestIDHeader); got != "client-id-1" {
		t.Errorf("cold echo = %q, want client-id-1", got)
	}

	// Warm repeat (response-cache hit): still echoed, even unsampled.
	resp, body = postJSONWithID(t, ts.URL+"/v1/simulate", "client-id-2", simReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(requestIDHeader); got != "client-id-2" {
		t.Errorf("warm echo = %q, want client-id-2", got)
	}

	// No client ID: the recorder generates one and the response carries it.
	resp, body = postJSONWithID(t, ts.URL+"/v1/schedule", "", simReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generated-id status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(requestIDHeader); got == "" {
		t.Error("no generated request ID on cold request without client ID")
	} else if !strings.Contains(got, "-") {
		t.Errorf("generated ID %q does not look like <prefix>-<seq>", got)
	}

	// Error envelopes carry the ID too: a 400 (decode error) ...
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(requestIDHeader, "client-id-3")
	errResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	errResp.Body.Close()
	if errResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-body status = %d, want 400", errResp.StatusCode)
	}
	if got := errResp.Header.Get(requestIDHeader); got != "client-id-3" {
		t.Errorf("400 echo = %q, want client-id-3", got)
	}

	// ... and a 422 (sentinel exception via fault injection).
	resp, body = postJSONWithID(t, ts.URL+"/v1/simulate", "client-id-4",
		map[string]any{"workload": "cmp", "model": "sentinel", "width": 8,
			"fault_segment": "a"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("fault status = %d, want 422: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(requestIDHeader); got != "client-id-4" {
		t.Errorf("422 echo = %q, want client-id-4", got)
	}
}

// TestRequestIDEchoWithoutRecorder: the echo is part of the protocol, not
// the recorder — client IDs round-trip even with observability disabled.
func TestRequestIDEchoWithoutRecorder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSONWithID(t, ts.URL+"/v1/simulate", "bare-7",
		map[string]any{"workload": "cmp", "model": "sentinel", "width": 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(requestIDHeader); got != "bare-7" {
		t.Errorf("echo = %q, want bare-7", got)
	}
	// Without a recorder there is nobody to mint IDs; absent stays absent.
	resp, _ = postJSONWithID(t, ts.URL+"/v1/simulate", "",
		map[string]any{"workload": "cmp", "model": "sentinel", "width": 4})
	if got := resp.Header.Get(requestIDHeader); got != "" {
		t.Errorf("recorder-less response minted ID %q, want none", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 1, Registry: reg, Recorder: quietRecorder()})
	const n = 5
	for i := 0; i < n; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/simulate",
			map[string]any{"workload": "cmp", "model": "sentinel", "width": 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	fams, err := obs.ValidateProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	var reqHist, decodeHist *obs.PromFamily
	var reqCount float64
	for i := range fams {
		switch fams[i].Name {
		case "server_request_ns":
			reqHist = &fams[i]
		case "server_decode_ns":
			decodeHist = &fams[i]
		case "server_requests":
			reqCount = fams[i].Samples[0].Value
		}
	}
	// Only the first request is decoded: the repeats are warm hits served
	// before any decode.
	if decodeHist == nil {
		t.Fatal("no server_decode_ns histogram family in exposition")
	}
	for _, s := range decodeHist.Samples {
		if s.Name == "server_decode_ns_count" && s.Value != 1 {
			t.Errorf("server_decode_ns_count = %v, want 1", s.Value)
		}
	}
	if reqHist == nil {
		t.Fatal("no server_request_ns histogram family in exposition")
	}
	if reqHist.Type != "histogram" {
		t.Fatalf("server_request_ns type %q, want histogram", reqHist.Type)
	}
	if reqCount != n {
		t.Errorf("server_requests = %v, want %d", reqCount, n)
	}
	// The histogram's count must agree with the admitted-request counter:
	// every admitted request observes exactly one latency.
	for _, s := range reqHist.Samples {
		if s.Name == "server_request_ns_count" && s.Value != reqCount {
			t.Errorf("histogram count %v != requests counter %v", s.Value, reqCount)
		}
	}
}

func TestMetricsWithoutRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without registry = %d, want 404", resp.StatusCode)
	}
}

func TestDebugRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Recorder: eagerRecorder()})
	simReq := map[string]any{"workload": "cmp", "model": "sentinel", "width": 4}
	// One cold request (full pipeline, spans) and one warm repeat (raw hit).
	for i := 0; i < 2; i++ {
		resp, body := postJSONWithID(t, ts.URL+"/v1/simulate", "dbg-req-1", simReq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/requests.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests.json = %d, want 200", resp.StatusCode)
	}
	var views []*obs.RecordView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(views) < 2 {
		t.Fatalf("retained %d records, want >= 2", len(views))
	}
	// Newest first: views[0] is the warm raw-tier hit, views[1] the cold run.
	byTier := map[string]*obs.RecordView{}
	var sawID bool
	for _, v := range views {
		byTier[v.Tier] = v
		if v.ID == "dbg-req-1" {
			sawID = true
		}
	}
	if !sawID {
		t.Error("no retained record carries the client request ID")
	}
	warm, cold := byTier["raw"], byTier["cell"]
	if warm == nil {
		t.Fatal("no raw-tier (warm hit) record retained")
	}
	if cold == nil {
		t.Fatal("no cell-tier (cold fast-path) record retained")
	}
	if warm.Sampled != "warm" {
		t.Errorf("warm record sampled = %q, want warm", warm.Sampled)
	}
	spanStages := map[string]bool{}
	for _, sp := range cold.Spans {
		spanStages[sp.Stage] = true
	}
	for _, want := range []string{"admission", "decode", "sfown", "encode"} {
		if !spanStages[want] {
			t.Errorf("cold record missing %q span; has %v", want, spanStages)
		}
	}
	if len(warm.Spans) == 0 || warm.Spans[0].Stage != "respcache" {
		t.Errorf("warm record spans = %+v, want leading respcache span", warm.Spans)
	}

	// The text page renders and carries the same ID, escaped.
	resp, err = http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests = %d, want 200", resp.StatusCode)
	}
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(page, []byte("dbg-req-1")) {
		t.Error("text page does not mention the request ID")
	}
	if !bytes.Contains(page, []byte("respcache")) {
		t.Error("text page has no span waterfall lines")
	}
}

func TestDebugRequestsWithoutRecorder(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/debug/requests", "/debug/requests.json"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without recorder = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestRespCacheServeAllocsRecorderArmed pins the tentpole's zero-overhead
// bound end to end: the full handler path on a warm response-cache hit, with
// the flight recorder armed but not sampling this request, stays within the
// same 2 allocs/op budget as the recorder-less path. The request carries no
// client ID (matching the benchmark load), so no echo header is built.
func TestRespCacheServeAllocsRecorderArmed(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; absolute bound measured without -race")
	}
	s := New(Config{Workers: 1, Recorder: quietRecorder()})
	h := s.Handler()
	body := []byte(`{"workload":"cmp","model":"sentinel+stores","width":8}`)
	// Prime the response cache.
	warm := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
	warm.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		t.Fatalf("prime = %d: %s", rec.Code, rec.Body.String())
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", nil)
	req.Header.Set("Content-Type", "application/json")
	rb := &reqBody{}
	w := newBenchWriter()
	avg := testing.AllocsPerRun(1000, func() {
		rb.Reader.Reset(body)
		req.Body = rb
		req.ContentLength = int64(len(body))
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	})
	if avg > 2 {
		t.Fatalf("warm serve with recorder armed = %.2f allocs/op, want <= 2", avg)
	}
}
