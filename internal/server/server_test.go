package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sentinel/internal/eval"
	"sentinel/internal/machine"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

// decodeError unpacks the typed error envelope.
func decodeError(t *testing.T, body []byte) *APIError {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body is not the typed envelope: %v\n%s", err, body)
	}
	if er.Error == nil {
		t.Fatalf("error body has no error field: %s", body)
	}
	return er.Error
}

func TestHealthAndReady(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	s.SetReady(false)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while warming = %d, want 503", resp.StatusCode)
	}
}

func TestSimulateWorkloadMatchesRunner(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		map[string]any{"workload": "cmp", "model": "sentinel+stores", "width": 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SimulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	// The served cell must equal a direct Runner measurement (same process-
	// wide cache, so this also exercises a hit).
	want, err := eval.Measure(mustWorkload(t, "cmp"), mustMachine(t, "sentinel+stores", 8), superblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Instrs != want.Instrs {
		t.Errorf("served cell = %d cycles / %d instrs, direct measure = %d / %d",
			got.Cycles, got.Instrs, want.Cycles, want.Instrs)
	}
	if got.Stalls != want.Sim.Stalls() {
		t.Errorf("served stalls = %d, want %d", got.Stalls, want.Sim.Stalls())
	}
	_ = s
}

func TestSimulateCoalescesRepeats(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := map[string]any{"workload": "wc", "model": "sentinel", "width": 4}
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	cs := s.Runner().CacheStats()["cells"]
	if cs.Size != 1 {
		t.Errorf("cells cache size = %d, want 1 (identical requests must share one cell)", cs.Size)
	}
	// Repeats are absorbed above the Runner now: the first request fills
	// the response-byte cache, the other two are byte hits that never
	// reach the cell cache at all.
	if hits := s.resp.hits.Load(); hits < 2 {
		t.Errorf("response cache hits = %d, want >= 2 (repeats served as cached bytes)", hits)
	}
	if cs.Misses != 1 {
		t.Errorf("cells cache misses = %d, want 1 (one real measurement)", cs.Misses)
	}
}

func TestSimulateFullReturnsOutput(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		map[string]any{"workload": "cmp", "model": "sentinel", "width": 8, "full": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SimulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Out) == 0 || got.MemSum == "" {
		t.Errorf("full run must include out and mem_sum, got out=%v mem_sum=%q", got.Out, got.MemSum)
	}
}

func TestScheduleSource(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	src := `
entry:
    li   r1, 4096
    li   r2, 7
    add  r3, r1, r2
    jsr  putint, r3
    halt
`
	resp, body := postJSON(t, ts.URL+"/v1/schedule",
		map[string]any{"source": src, "model": "sentinel", "width": 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ScheduleResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Listing == "" || got.Instrs == 0 {
		t.Errorf("schedule response missing listing/instrs: %+v", got)
	}
}

func TestScheduleAssemblyError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/schedule",
		map[string]any{"source": "entry:\n    bogus r1, r2\n", "model": "sentinel"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	ae := decodeError(t, body)
	if ae.Kind != KindAssemblyError {
		t.Errorf("kind = %q, want %q", ae.Kind, KindAssemblyError)
	}
}

// virtualSource names registers no machine has (v1, vf2); the assembler
// knows only r0..r63 and f0..f63, so it fails to assemble.
const virtualSource = `
entry:
    li   v1, 7
    cvif vf2, v1
    jsr  putint, v1
    halt
`

// checkAssemblyError asserts a 422 assembly_error envelope.
func checkAssemblyError(t *testing.T, what string, status int, body []byte) {
	t.Helper()
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("%s: status %d, want 422: %s", what, status, body)
	}
	if ae := decodeError(t, body); ae.Kind != KindAssemblyError {
		t.Fatalf("%s: kind = %q, want %q", what, ae.Kind, KindAssemblyError)
	}
}

// TestVirtualRegisterIsAssemblyError: inline source naming a virtual
// register is refused with a 422 before any compile stage indexes a
// register file. The repeat must answer the same 422 from the source cache,
// not wait out its deadline behind an entry a crashed compile never
// completed; the short timeout keeps such a regression from stalling.
func TestVirtualRegisterIsAssemblyError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 2 * time.Second})
	for _, c := range []struct {
		ep  string
		req map[string]any
	}{
		{"/v1/schedule", map[string]any{"source": virtualSource, "model": "sentinel"}},
		{"/v1/schedule", map[string]any{"source": virtualSource, "model": "sentinel", "superblock": false}},
		{"/v1/simulate", map[string]any{"source": virtualSource, "model": "sentinel"}},
	} {
		for i := 0; i < 2; i++ {
			resp, body := postJSON(t, ts.URL+c.ep, c.req)
			checkAssemblyError(t, fmt.Sprintf("%s %v try %d", c.ep, c.req, i), resp.StatusCode, body)
		}
	}
}

func TestSimulateSourceRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	src := `
entry:
    li   r1, 40
    li   r2, 2
    add  r3, r1, r2
    jsr  putint, r3
    halt
`
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		map[string]any{"source": src, "model": "sentinel", "width": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SimulateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Out) != 1 || got.Out[0] != 42 {
		t.Errorf("out = %v, want [42]", got.Out)
	}
}

func TestUnknownWorkload404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{"workload": "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", resp.StatusCode, body)
	}
	if ae := decodeError(t, body); ae.Kind != KindUnknownWorkload {
		t.Errorf("kind = %q, want %q", ae.Kind, KindUnknownWorkload)
	}
}

func TestBadModel400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		map[string]any{"workload": "cmp", "model": "warp-drive"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if ae := decodeError(t, body); ae.Kind != KindBadRequest {
		t.Errorf("kind = %q, want %q", ae.Kind, KindBadRequest)
	}
}

// TestOverLimitBody413: a body one byte over MaxBodyBytes is refused with
// 413 and its own envelope kind on every decoding endpoint; a body at the
// limit is decoded (and refused as malformed JSON, 400).
func TestOverLimitBody413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/simulate", "/v1/schedule", "/v1/batch"} {
		resp, body := postRawURL(t, ts.URL+path, strings.Repeat(" ", MaxBodyBytes+1))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %s", path, resp.StatusCode, body)
		}
		if ae := decodeError(t, body); ae.Kind != KindTooLarge {
			t.Errorf("%s: kind = %q, want %q", path, ae.Kind, KindTooLarge)
		}
		resp, body = postRawURL(t, ts.URL+path, strings.Repeat(" ", MaxBodyBytes))
		if ae := decodeError(t, body); resp.StatusCode != http.StatusBadRequest || ae.Kind != KindBadRequest {
			t.Errorf("%s: a body at the limit answered %d %q, want 400 %q", path, resp.StatusCode, ae.Kind, KindBadRequest)
		}
	}
}

// TestFiguresByteIdentical pins the serving guarantee: a served figure
// section must be byte-identical to what the paperfigs pipeline renders for
// the same inputs, including across repeated (cache-served) requests.
func TestFiguresByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	want := renderDirect(t, "fig4")
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/figures?section=fig4")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: served fig4 differs from direct render\nserved:\n%s\ndirect:\n%s", i, got, want)
		}
	}
}

func TestFiguresUnknownSection400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/figures?section=fig99")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestFiguresMalformedQuery400: a query url.ParseQuery refuses (a bad
// percent escape, a semicolon separator) is a 400 bad_request, not a
// render of whichever section names survived the parse.
func TestFiguresMalformedQuery400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, q := range []string{"section=%zz", "section=fig4;x"} {
		resp, err := http.Get(ts.URL + "/v1/figures?" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%d bytes)", q, resp.StatusCode, len(body))
		}
		if ae := decodeError(t, body); ae.Kind != KindBadRequest {
			t.Errorf("%s: kind = %q, want %q", q, ae.Kind, KindBadRequest)
		}
	}
}

// TestRequestTimeout504: a 1ms deadline cannot complete a cold full-matrix
// figure render; the typed timeout error must come back, not a hang or 500.
func TestRequestTimeout504(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/figures?section=fig4&timeout_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if ae := decodeError(t, body); ae.Kind != KindTimeout {
		t.Errorf("kind = %q, want %q", ae.Kind, KindTimeout)
	}
}

// TestTimeoutDoesNotPoisonCache: a request whose deadline expires while it
// OWNS the Runner's singleflight computation (not merely waits on it) must
// not cache its context error — otherwise every later request for the same
// cell serves the dead request's 504 until process restart. The doomed
// requests below expire at whatever pipeline stage 1ms reaches; the sane
// retry must succeed regardless.
func TestTimeoutDoesNotPoisonCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SimulateRequest{ProgramSpec: ProgramSpec{Workload: "cmp"}, Model: "sentinel"}
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/simulate?timeout_ms=1", req)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("doomed request %d: status %d, want 200 or 504: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after a timed-out owner: status %d, want 200 (cache poisoned): %s",
			resp.StatusCode, body)
	}
}

// TestWriteJSONUnencodableIs500: an unencodable response value must become
// a 500 error envelope, never a 200 status line with a truncated body.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ae := decodeError(t, rec.Body.Bytes()); ae.Kind != KindInternal {
		t.Errorf("kind = %q, want %q", ae.Kind, KindInternal)
	}
}

// TestAdmissionOverload: with one slot and no queue, a held slot turns the
// next acquire into an immediate overload refusal.
func TestAdmissionOverload(t *testing.T) {
	a := newAdmission(1, 0)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.acquire(context.Background()); err != errOverload {
		t.Fatalf("second acquire = %v, want errOverload", err)
	}
	release()
	release2, err := a.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after release = %v", err)
	}
	release2()
}

// TestAdmissionQueueDeadline: a queued request leaves the queue when its
// deadline expires.
func TestAdmissionQueueDeadline(t *testing.T) {
	a := newAdmission(1, 4)
	release, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued acquire = %v, want DeadlineExceeded", err)
	}
	if q := a.Queued(); q != 0 {
		t.Errorf("queued = %d after deadline, want 0", q)
	}
}

// TestDrain pins the graceful-drain contract: once draining, /readyz is
// 503 and new work is refused, but the in-flight request completes and
// Drain returns only after it does.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxInFlight: 2})

	// Hold an admission slot, standing in for an in-flight request.
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Drain must not complete while the request is in flight.
	waitFor(t, func() bool { return s.adm.draining.Load() })
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// While draining: readyz 503, new API requests refused with the typed
	// draining error.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	resp2, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{"workload": "cmp"})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("simulate during drain = %d, want 503: %s", resp2.StatusCode, body)
	}
	if ae := decodeError(t, body); ae.Kind != KindDraining {
		t.Errorf("kind = %q, want %q", ae.Kind, KindDraining)
	}

	// Completing the in-flight request completes the drain.
	release()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the in-flight request finished")
	}
}

func TestMetricsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 1, Registry: reg})
	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		map[string]any{"workload": "cmp", "model": "sentinel", "width": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	sum := reg.Summary()
	for _, want := range []string{"server.requests", "server.request_ns.count", "server.inflight", "server.cache_hit_permille"} {
		if !strings.Contains(sum, want) {
			t.Errorf("metrics summary missing %s:\n%s", want, sum)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// renderDirect renders one section through the same shared renderer the
// CLI uses, on a fresh Runner, standing in for `paperfigs -<section>`.
func renderDirect(t *testing.T, name string) []byte {
	t.Helper()
	var s eval.Sections
	if !s.SectionByName(name) {
		t.Fatalf("unknown section %q", name)
	}
	var buf bytes.Buffer
	if err := eval.RenderSections(context.Background(), s, eval.NewRunner(2), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustWorkload(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return b
}

func mustMachine(t *testing.T, model string, width int) machine.Desc {
	t.Helper()
	md, err := parseMachine(model, width, "")
	if err != nil {
		t.Fatalf("parseMachine(%s, %d): %v", model, width, err)
	}
	return md
}

// TestFullSimulateDivergenceIs500: a full simulate whose result differs
// from the reference interpreter's (here: a cached reference tampered with
// after compilation) must become the 500 internal envelope, for a diverging
// out as for a diverging mem_sum.
func TestFullSimulateDivergenceIs500(t *testing.T) {
	src := `
entry:
    li   r1, 4096
    li   r2, 7
    add  r3, r1, r2
    jsr  putint, r3
    halt
`
	for _, tc := range []struct {
		name   string
		tamper func(ref *prog.Result)
	}{
		{"out", func(ref *prog.Result) { ref.Out = []int64{ref.Out[0] + 1} }},
		{"out_length", func(ref *prog.Result) { ref.Out = append(ref.Out, 0) }},
		{"mem_sum", func(ref *prog.Result) { ref.MemSum++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1})
			req := map[string]any{"source": src, "model": "sentinel", "width": 4, "full": true}
			if resp, body := postJSON(t, ts.URL+"/v1/simulate", req); resp.StatusCode != http.StatusOK {
				t.Fatalf("untampered run: status %d: %s", resp.StatusCode, body)
			}
			key := sourceKey{sum: sha256.Sum256([]byte(src)),
				md: mustMachine(t, "sentinel", 4).CompileView(), form: true}
			c, err := s.sources.Get(context.Background(), key, func() (*compiled, error) {
				return nil, errors.New("the untampered run left no compile in the memo")
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := *c.ref
			tc.tamper(&ref)
			c.ref = &ref
			resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("diverging run: status %d, want 500: %s", resp.StatusCode, body)
			}
			if ae := decodeError(t, body); ae.Kind != KindInternal ||
				!strings.Contains(ae.Message, "diverges from the reference interpreter") {
				t.Errorf("envelope = %+v, want kind %q with the divergence message", ae, KindInternal)
			}
		})
	}
}
