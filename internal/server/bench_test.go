package server

// Serving-path benchmarks: the numbers behind BENCH_serve.json. Each
// endpoint is measured warm (the response-byte cache hit path — the steady
// state of a long-lived sentineld) both in-process against the handler and
// over a real TCP connection with keep-alive, so transport overhead is
// visible separately from handler overhead. The in-process rows are gated
// (scripts/benchjson.py, then scripts/benchgate.py); the tcp/ rows are not.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sentinel/internal/obs"
)

// benchWriter is the minimal ResponseWriter: preallocated header map and a
// discarding body, so in-process benchmarks measure the serving path rather
// than the recorder fixture. It remembers an explicit non-200 status so the
// loop can fail instead of timing error responses.
type benchWriter struct {
	h    http.Header
	code int
}

func newBenchWriter() *benchWriter                 { return &benchWriter{h: make(http.Header, 4)} }
func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }

// reqBody is a reusable request body: the serving fast path replaces r.Body
// with its own pooled scratch, so a benchmark reusing one request object
// must reattach a body every iteration — this one resets without allocating.
type reqBody struct{ bytes.Reader }

func (b *reqBody) Close() error { return nil }

// warmOnce issues one request through the handler and fails the benchmark
// unless it succeeded — every warm benchmark measures cache hits, never a
// first miss.
func warmOnce(b *testing.B, h http.Handler, method, target string, body []byte) {
	b.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm %s %s = %d: %s", method, target, rec.Code, rec.Body.String())
	}
}

// benchInproc drives the handler directly with a reused request object and
// rewound body reader — the pure handler-path cost.
func benchInproc(b *testing.B, s *Server, method, target string, body []byte) {
	h := s.Handler()
	warmOnce(b, h, method, target, body)
	req := httptest.NewRequest(method, target, nil)
	req.Header.Set("Content-Type", "application/json")
	rb := &reqBody{}
	w := newBenchWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if body != nil {
			rb.Reader.Reset(body)
			req.Body = rb
			req.ContentLength = int64(len(body))
		}
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("iteration %d: status %d", i, w.code)
		}
	}
}

// benchTCP drives the same request over a real listener with keep-alive —
// handler path plus HTTP transport, what sentinelload actually sees.
func benchTCP(b *testing.B, s *Server, method, path string, body []byte) {
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	warmOnce(b, s.Handler(), method, path, body)
	var rd *bytes.Reader
	var bodyRC io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
		bodyRC = rd
	}
	req, err := http.NewRequest(method, ts.URL+path, bodyRC)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rd != nil {
			rd.Reset(body)
		}
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

var (
	benchSimBody   = []byte(`{"workload":"cmp","model":"sentinel+stores","width":8}`)
	benchSchedBody = []byte(`{"workload":"cmp","model":"sentinel+stores","width":8}`)
)

func BenchmarkServeSimulate(b *testing.B) {
	s := New(Config{Workers: 1})
	b.Run("warm", func(b *testing.B) {
		benchInproc(b, s, http.MethodPost, "/v1/simulate", benchSimBody)
	})
	b.Run("tcp/warm", func(b *testing.B) {
		benchTCP(b, s, http.MethodPost, "/v1/simulate", benchSimBody)
	})
	// The observability-overhead rows: same warm hit with the flight recorder
	// armed but effectively never sampling (the steady-state production
	// setting), and tail-sampling 1 in 16 (the recommended diagnostic rate).
	b.Run("warm-recorder", func(b *testing.B) {
		sr := New(Config{Workers: 1, Recorder: obs.NewRecorder(obs.RecorderConfig{
			Entries: 256, Slow: time.Hour, Every: 1 << 30})})
		benchInproc(b, sr, http.MethodPost, "/v1/simulate", benchSimBody)
	})
	b.Run("warm-sampled16", func(b *testing.B) {
		sr := New(Config{Workers: 1, Recorder: obs.NewRecorder(obs.RecorderConfig{
			Entries: 256, Slow: time.Hour, Every: 16})})
		benchInproc(b, sr, http.MethodPost, "/v1/simulate", benchSimBody)
	})
}

func BenchmarkServeSchedule(b *testing.B) {
	s := New(Config{Workers: 1})
	b.Run("warm", func(b *testing.B) {
		benchInproc(b, s, http.MethodPost, "/v1/schedule", benchSchedBody)
	})
	b.Run("tcp/warm", func(b *testing.B) {
		benchTCP(b, s, http.MethodPost, "/v1/schedule", benchSchedBody)
	})
}

func BenchmarkServeFigures(b *testing.B) {
	s := New(Config{Workers: 1})
	b.Run("fig4", func(b *testing.B) {
		benchInproc(b, s, http.MethodGet, "/v1/figures?section=fig4", nil)
	})
	b.Run("tcp/fig4", func(b *testing.B) {
		benchTCP(b, s, http.MethodGet, "/v1/figures?section=fig4", nil)
	})
}

// BenchmarkServeBatch measures POST /v1/batch end to end (decode,
// per-element cache probe, fan-out, stream framing) at 64 elements; ns/op is
// per batch, so divide by 64 to compare against the single-request rows:
//
//	warm64:  every element a response-byte cache hit, the batched analogue
//	         of ServeSimulate/warm
//	cold64:  cache disabled, every element re-executes through the handler
//	         against warm artifacts — the amortization target
//	mixed:   32 warm hits interleaved with 32 full simulations (full runs
//	         are never cached), the realistic mixed frame
func BenchmarkServeBatch(b *testing.B) {
	item := func(body string) string { return `{"request":` + body + `}` }
	warmBody := item(`{"workload":"cmp","model":"sentinel+stores","width":8}`)
	var warm64, cold64, mixed []string
	for i := 0; i < 64; i++ {
		name := []string{"cmp", "wc", "grep", "eqntott"}[i%4]
		warm64 = append(warm64, warmBody)
		cold64 = append(cold64, item(fmt.Sprintf(
			`{"workload":%q,"model":"sentinel+stores","width":8}`, name)))
		if i%2 == 0 {
			mixed = append(mixed, warmBody)
		} else {
			mixed = append(mixed, item(fmt.Sprintf(
				`{"workload":%q,"model":"sentinel+stores","width":8,"full":true}`, name)))
		}
	}
	frame := func(items []string) []byte {
		return []byte("[" + strings.Join(items, ",") + "]")
	}
	cached := New(Config{Workers: 1})
	uncached := New(Config{Workers: 1, RespCacheEntries: -1})
	for _, c := range []struct {
		name string
		body []byte
		srv  *Server
	}{
		{"warm64", frame(warm64), cached},
		{"cold64", frame(cold64), uncached},
		{"mixed", frame(mixed), cached},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchInproc(b, c.srv, http.MethodPost, "/v1/batch", c.body)
		})
	}
}

// TestRespCacheServeAllocs pins the acceptance bound: serving a response-
// cache hit performs zero marshal work — the only allocation left is the
// header value slice Set builds, well under the 2 allocs/op budget.
func TestRespCacheServeAllocs(t *testing.T) {
	c := NewRespCache(64)
	var k respKey
	k[0] = 0xA5
	c.Put(k, []byte(`{"ok":true}`), jsonContentType)
	w := newBenchWriter()
	avg := testing.AllocsPerRun(1000, func() {
		if !c.Serve(w, k) {
			t.Fatal("unexpected cache miss")
		}
	})
	if avg > 2 {
		t.Fatalf("RespCache.serve = %.2f allocs/op, want <= 2", avg)
	}
}
