package fleet_test

// The warm-path benchmarks the perf work is gated on (scripts/benchjson.py
// turns their go test output into BENCH_serve.json rows, which
// scripts/benchgate.py compares against the committed baseline):
//
//   FleetServeWarm — a raw-lane front-cache hit served by the router with
//   no backend traffic: slurp, fingerprint, one shard lookup, one Write.
//   Gated at <= 4 allocs/op.
//
//   FleetProxyMiss — the same request with caching disabled, so every serve
//   crosses the raw pooled-connection HTTP/1.1 hop to a warm backend; this
//   is the floor the old net/http hop was ~3.5x above.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sentinel/internal/fleet"
)

// benchFleetHandler builds a router over one real backend and returns its
// handler plus a re-servable request: rewind the body, serve, repeat.
func benchFleetHandler(b *testing.B, cacheEntries int) (http.Handler, *http.Request, *rewindBody) {
	b.Helper()
	bk := startBackend(b)
	rt, err := fleet.New(fleet.Config{
		Backends:         []string{bk.addr},
		ProbeInterval:    -1, // no prober: health is static for the bench
		RespCacheEntries: cacheEntries,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)

	body := []byte(`{"workload":"cmp","model":"sentinel+stores","width":8}`)
	rb := new(rewindBody)
	rb.Reset(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", rb)
	req.Header.Set("Content-Type", "application/json")

	// Prime: the first serve crosses the hop (filling the front cache when
	// enabled, and the backend's own respcache either way).
	rec := httptest.NewRecorder()
	h := rt.Handler()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("prime: status %d: %s", rec.Code, rec.Body)
	}
	return h, req, rb
}

func BenchmarkFleetServeWarm(b *testing.B) {
	h, req, rb := benchFleetHandler(b, 0)
	rec := httptest.NewRecorder()
	rb.Seek(0, io.SeekStart) //nolint:errcheck
	req.Body = rb
	h.ServeHTTP(rec, req)
	if rec.Header().Get("X-Fleet-Backend") != "cache" {
		b.Fatalf("warm repeat answered by %q, want the front cache", rec.Header().Get("X-Fleet-Backend"))
	}
	w := &nullWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.Seek(0, io.SeekStart) //nolint:errcheck
		req.Body = rb
		h.ServeHTTP(w, req)
	}
}

func BenchmarkFleetProxyMiss(b *testing.B) {
	h, req, rb := benchFleetHandler(b, -1)
	w := &nullWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)               // the relay Adds headers; a reused map must not accumulate
		rb.Seek(0, io.SeekStart) //nolint:errcheck
		req.Body = rb
		h.ServeHTTP(w, req)
	}
}
