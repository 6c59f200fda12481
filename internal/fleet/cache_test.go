package fleet_test

// Router warm path: the front response cache and its discipline. These tests
// pin the cached analogues of the proxied-path contracts — a cache-served
// response is byte-identical to a direct backend answer, the bypass ops never
// touch the cache, the LRU stays bounded under a key storm, a cold storm on
// one fingerprint costs one backend hop, hits show up in the flight
// recorder, and the warm serve stays within its allocation budget.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/fleet"
	"sentinel/internal/obs"
	"sentinel/internal/workload"
)

// TestFleetRouterCacheByteIdentity is the warm path's acceptance pin: for
// every workload × simulate/schedule (plus figures), the first proxied
// request answers byte-identically to a direct backend call, and the repeat
// is served by the front cache — tagged "cache" — with exactly the same
// bytes. A textual variant (reordered fields) of a cached request hits under
// the canonical key.
func TestFleetRouterCacheByteIdentity(t *testing.T) {
	_, _, router := startFleet(t, 3, nil)

	check := func(path string, body []byte) {
		t.Helper()
		cold := post(t, router, path, body)
		if cold.backend == "" || cold.backend == "cache" {
			t.Fatalf("%s %s: cold request answered by %q, want a backend", path, body, cold.backend)
		}
		direct := post(t, cold.backend, path, body)
		if direct.status != cold.status || !bytes.Equal(direct.body, cold.body) {
			t.Fatalf("%s %s: proxied (%d, %d bytes) differs from direct (%d, %d bytes)",
				path, body, cold.status, len(cold.body), direct.status, len(direct.body))
		}
		warm := post(t, router, path, body)
		if warm.backend != "cache" {
			t.Fatalf("%s %s: repeat answered by %q, want the front cache", path, body, warm.backend)
		}
		if warm.status != direct.status || warm.ctype != direct.ctype || !bytes.Equal(warm.body, direct.body) {
			t.Fatalf("%s %s: cached response differs from direct:\ncached: %d %q %s\ndirect: %d %q %s",
				path, body, warm.status, warm.ctype, warm.body, direct.status, direct.ctype, direct.body)
		}
	}

	all := workload.All()
	if len(all) != 17 {
		t.Fatalf("workload registry has %d benchmarks, want 17", len(all))
	}
	for _, wl := range all {
		body := []byte(fmt.Sprintf(`{"workload":%q,"model":"sentinel","width":4}`, wl.Name))
		check("/v1/simulate", body)
		check("/v1/schedule", body)
	}

	// GET /v1/figures caches too.
	cold := get(t, router, "/v1/figures?section=fig4")
	warm := get(t, router, "/v1/figures?section=fig4")
	if warm.backend != "cache" || !bytes.Equal(warm.body, cold.body) {
		t.Fatalf("figures repeat answered by %q (%d bytes), want cached copy of the %d-byte cold response",
			warm.backend, len(warm.body), len(cold.body))
	}

	// A textual variant of a cached request — same canonical meaning, different
	// bytes — hits under the canonical key, not just the raw one.
	prime := []byte(`{"workload":"compress","model":"sentinel+stores","width":8}`)
	first := post(t, router, "/v1/simulate", prime)
	variant := post(t, router, "/v1/simulate", []byte(`{"width":8, "model":"sentinel+stores", "workload":"compress"}`))
	if variant.backend != "cache" {
		t.Fatalf("reordered-field variant answered by %q, want the canonical cache tier", variant.backend)
	}
	if !bytes.Equal(variant.body, first.body) {
		t.Fatalf("canonical-tier response differs from the priming one:\nvariant: %s\nprime:   %s",
			variant.body, first.body)
	}
}

// TestFleetFiguresMalformedQuery: a /v1/figures query the backend refuses
// as malformed comes back through the router as the backend's 400
// bad_request, and a repeat crosses the hop again instead of being served
// from the front cache.
func TestFleetFiguresMalformedQuery(t *testing.T) {
	_, _, router := startFleet(t, 2, nil)
	for _, q := range []string{"section=%zz", "section=fig4;x"} {
		for i := 0; i < 2; i++ {
			got := get(t, router, "/v1/figures?"+q)
			if got.status != http.StatusBadRequest || !bytes.Contains(got.body, []byte(`"bad_request"`)) {
				t.Fatalf("%s #%d: %d %s, want 400 bad_request", q, i, got.status, got.body)
			}
			if got.backend == "cache" || got.backend == "" {
				t.Fatalf("%s #%d: answered by %q, want a backend", q, i, got.backend)
			}
		}
	}
}

// TestFleetCacheBypass pins the discipline that keeps the cache honest:
// bypass ops (full traces, fault injection) and refusals the backend must
// produce itself are never served from the front cache, even when a close
// sibling is already cached.
func TestFleetCacheBypass(t *testing.T) {
	_, rt, router := startFleet(t, 2, nil)

	// full:true repeats cross the hop every time — the trace payload is
	// deliberately uncached fleet-wide.
	full := []byte(`{"workload":"cmp","model":"sentinel","width":4,"full":true}`)
	for i := 0; i < 3; i++ {
		if r := post(t, router, "/v1/simulate", full); r.status != http.StatusOK || r.backend == "cache" {
			t.Fatalf("full request %d: status %d backend %q, want 200 from a backend", i, r.status, r.backend)
		}
	}

	// Fault injection: find a segment the workload actually has (the 422
	// sentinel_exception envelope), then pin that its repeats are never
	// cached — a fault report must come from a live pipeline every time.
	var fault []byte
	for _, seg := range []string{"text", "input", "src", "a", "heap", "cells", "x", "re", "b-data", "tokens"} {
		body := []byte(fmt.Sprintf(`{"workload":"cmp","model":"sentinel","width":8,"fault_segment":%q}`, seg))
		if r := post(t, router, "/v1/simulate", body); r.status == http.StatusUnprocessableEntity {
			fault = body
			break
		}
	}
	if fault == nil {
		t.Fatal("no fault_segment candidate produced a 422 for cmp")
	}
	for i := 0; i < 3; i++ {
		r := post(t, router, "/v1/simulate", fault)
		if r.status != http.StatusUnprocessableEntity || r.backend == "cache" {
			t.Fatalf("fault repeat %d: status %d backend %q, want an uncached 422", i, r.status, r.backend)
		}
		if !strings.Contains(string(r.body), "sentinel_exception") {
			t.Fatalf("fault repeat %d: body %s, want the sentinel_exception envelope", i, r.body)
		}
	}

	// Non-200 envelopes are never memoized: an unknown workload decodes
	// cleanly (so it routes on the canonical key) but must refuse from a
	// backend on every repeat.
	unknown := []byte(`{"workload":"nope","model":"sentinel","width":4}`)
	first := post(t, router, "/v1/simulate", unknown)
	if first.status == http.StatusOK {
		t.Fatalf("unknown workload answered 200: %s", first.body)
	}
	for i := 0; i < 2; i++ {
		r := post(t, router, "/v1/simulate", unknown)
		if r.backend == "cache" {
			t.Fatalf("error-envelope repeat %d served from cache", i)
		}
		if r.status != first.status || !bytes.Equal(r.body, first.body) {
			t.Fatalf("error-envelope repeat %d: %d %s, want the backend's own %d %s", i, r.status, r.body, first.status, first.body)
		}
	}

	// The strict canonical gate: once the plain body is cached, a variant the
	// backend would refuse — an unknown field, an invalid timeout_ms — must
	// still get the backend's 400, never the cached 200.
	plain := []byte(`{"workload":"cmp","model":"sentinel","width":4}`)
	if r := post(t, router, "/v1/simulate", plain); r.status != http.StatusOK {
		t.Fatalf("priming request: status %d", r.status)
	}
	if r := post(t, router, "/v1/simulate", plain); r.backend != "cache" {
		t.Fatalf("prime did not cache (repeat answered by %q)", r.backend)
	}
	if r := post(t, router, "/v1/simulate", []byte(`{"workload":"cmp","model":"sentinel","width":4,"bogus":1}`)); r.status != http.StatusBadRequest || r.backend == "cache" {
		t.Fatalf("unknown-field variant: status %d backend %q, want the backend's 400", r.status, r.backend)
	}
	if r := post(t, router, "/v1/simulate?timeout_ms=abc", plain); r.status != http.StatusBadRequest || r.backend == "cache" {
		t.Fatalf("invalid timeout_ms: status %d backend %q, want the backend's 400", r.status, r.backend)
	}

	// Nothing above may have leaked into the cache beyond the two entries the
	// priming request filled (raw + canonical lane).
	if n := rt.CacheLen(); n != 2 {
		t.Errorf("cache holds %d entries after the bypass storm, want exactly the 2 primed lanes", n)
	}
}

// TestFleetCacheLRUBound: a storm of distinct cacheable keys cannot grow the
// front cache past its configured bound.
func TestFleetCacheLRUBound(t *testing.T) {
	_, rt, router := startFleet(t, 1, func(c *fleet.Config) { c.RespCacheEntries = 8 })
	for _, wl := range workload.All() {
		for _, width := range []int{2, 4, 8} {
			body := []byte(fmt.Sprintf(`{"workload":%q,"model":"sentinel","width":%d}`, wl.Name, width))
			if r := post(t, router, "/v1/simulate", body); r.status != http.StatusOK {
				t.Fatalf("%s width %d: status %d", wl.Name, width, r.status)
			}
		}
	}
	if n := rt.CacheLen(); n < 1 || n > 8 {
		t.Fatalf("cache holds %d entries after 51 distinct keys, want 1..8", n)
	}
	// The bound held, and the most recent key is still warm.
	last := []byte(fmt.Sprintf(`{"workload":%q,"model":"sentinel","width":8}`, workload.All()[16].Name))
	if r := post(t, router, "/v1/simulate", last); r.backend != "cache" {
		t.Fatalf("most-recent key answered by %q, want the front cache", r.backend)
	}
}

// TestFleetCacheSingleflight: a cold storm of identical requests costs the
// backend exactly one hop — the owner fills, every waiter is handed the
// owner's bytes and tagged as a cache answer.
func TestFleetCacheSingleflight(t *testing.T) {
	var backendHits atomic.Int64
	resp := []byte(`{"workload":"cmp","model":"sentinel","width":4,"cycles":123}` + "\n")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		backendHits.Add(1)
		io.Copy(io.Discard, r.Body)        //nolint:errcheck
		time.Sleep(100 * time.Millisecond) // hold the storm in flight
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(resp) //nolint:errcheck
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stub := &http.Server{Handler: mux}
	go stub.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { stub.Close() })

	rt, err := fleet.New(fleet.Config{
		Backends:      []string{ln.Addr().String()},
		ProbeInterval: -1, // backends start ready; no prober needed
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: rt.Handler()}
	go httpSrv.Serve(rln) //nolint:errcheck
	t.Cleanup(func() { httpSrv.Close() })
	router := rln.Addr().String()

	const n = 8
	body := []byte(`{"workload":"cmp","model":"sentinel","width":4}`)
	results := make([]response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = post(t, router, "/v1/simulate", body)
		}(i)
	}
	wg.Wait()

	cached := 0
	for i, r := range results {
		if r.status != http.StatusOK || !bytes.Equal(r.body, resp) {
			t.Fatalf("request %d: status %d body %s, want the stub's bytes", i, r.status, r.body)
		}
		if r.backend == "cache" {
			cached++
		}
	}
	if got := backendHits.Load(); got != 1 {
		t.Errorf("cold storm of %d identical requests cost the backend %d hops, want 1 (singleflight)", n, got)
	}
	if cached < n-1 {
		t.Errorf("%d of %d stormers were handed the owner's fill, want >= %d", cached, n, n-1)
	}
}

// TestFleetCacheDebugRequests: sampled warm hits appear in the router's
// flight recorder with the fcache lookup span and the warm marker — the
// observability contract for the new tier.
func TestFleetCacheDebugRequests(t *testing.T) {
	_, _, router := startFleet(t, 1, func(c *fleet.Config) {
		c.Recorder = obs.NewRecorder(obs.RecorderConfig{Entries: 32, Every: 1})
	})
	body := []byte(`{"workload":"wc","model":"sentinel","width":4}`)
	if r := post(t, router, "/v1/simulate", body); r.status != http.StatusOK {
		t.Fatalf("prime: status %d", r.status)
	}
	if r := post(t, router, "/v1/simulate", body); r.backend != "cache" {
		t.Fatalf("repeat answered by %q, want the front cache", r.backend)
	}
	r := get(t, router, "/debug/requests.json")
	if r.status != http.StatusOK {
		t.Fatalf("/debug/requests.json = %d", r.status)
	}
	if !strings.Contains(string(r.body), `"fcache"`) {
		t.Fatalf("recorder snapshot has no fcache span:\n%s", r.body)
	}
	if !strings.Contains(string(r.body), `"warm"`) {
		t.Fatalf("recorder snapshot never marked the raw-tier hit warm:\n%s", r.body)
	}
}

// nullWriter is the alloc test's response sink: a reusable header map and a
// discarding body, so the measurement sees only the router's own work.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

// rewindBody is a reusable request body: a bytes.Reader with a no-op Close,
// rewound between serves.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestFleetWarmServeAllocs pins the warm path's allocation budget: a
// raw-lane cache hit — slurp, fingerprint, lookup, two header sets, one
// Write — must stay within 4 allocations per request (the benchgate bound
// on FleetServeWarm).
func TestFleetWarmServeAllocs(t *testing.T) {
	b := startBackend(t)
	rt, err := fleet.New(fleet.Config{
		Backends:      []string{b.addr},
		ProbeInterval: -1, // no prober, no registry, no recorder: just the serve path
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	h := rt.Handler()

	body := []byte(`{"workload":"cmp","model":"sentinel","width":4}`)
	rb := new(rewindBody)
	rb.Reset(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", rb)
	req.Header.Set("Content-Type", "application/json")

	serve := func(w http.ResponseWriter) {
		rb.Seek(0, io.SeekStart) //nolint:errcheck
		req.Body = rb
		h.ServeHTTP(w, req)
	}
	// Prime through the real proxied hop, then confirm the repeat is warm.
	rec := httptest.NewRecorder()
	serve(rec)
	if rec.Code != http.StatusOK {
		t.Fatalf("prime: status %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	serve(rec)
	if got := rec.Header().Get("X-Fleet-Backend"); got != "cache" {
		t.Fatalf("repeat answered by %q, want the front cache", got)
	}

	w := &nullWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(200, func() { serve(w) })
	if allocs > 4 {
		t.Fatalf("warm cache serve costs %.1f allocs/request, want <= 4", allocs)
	}
}
