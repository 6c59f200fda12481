package fleet

// The Router: HTTP termination, the routing decision, the proxied hop with
// bounded retry, and the router's own observability surface.
//
// Endpoints the router answers itself: /healthz, /readyz (503 once draining
// or when no backend is eligible), /fleet/status (the per-backend health
// and routing view), /metrics, /debug/requests[.json], /debug/vars and
// /debug/pprof. Everything else — the /v1 API — is fingerprinted, routed
// and proxied; the backend's status, content type and body pass through
// byte-for-byte, plus an X-Fleet-Backend header naming the backend that
// answered (the affinity tests read it; bodies stay untouched).
//
// Error discipline: the router only synthesizes an envelope when it cannot
// obtain one from a backend — no backend eligible, or the proxied hop
// failed after the one permitted retry. Synthesized envelopes use the
// backends' own JSON shape with status 503, so a load client's retry logic
// treats a router-local refusal exactly like a backend's draining refusal.
// A request whose own context ends first gets the backends' 504 timeout
// envelope instead, and counts against no backend.

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/fingerprint"
	"sentinel/internal/obs"
	"sentinel/internal/server"
	"sentinel/internal/wire"
)

// Config sizes the router. Zero values select defaults.
type Config struct {
	// Backends are the sentineld addresses (host:port) forming the ring.
	// At least one is required; order does not affect ring placement.
	Backends []string
	// VNodes is the virtual-node count per backend (default 64).
	VNodes int
	// HotThreshold is the sketch estimate at which a fingerprint spills
	// across the fleet (default 64; negative disables spilling).
	HotThreshold int
	// HotWindow is how many sketch touches between counter halvings
	// (default 4096).
	HotWindow int
	// ProbeInterval is the /readyz polling period (default 500ms; negative
	// disables the prober — tests drive health directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip (default 2s).
	ProbeTimeout time.Duration
	// FailureThreshold is how many consecutive probe failures mark a
	// backend unhealthy (default 2; connect failures on the proxy path
	// mark it immediately).
	FailureThreshold int
	// RequestTimeout bounds every proxied hop — one wire exchange, or one
	// HTTP exchange including a streamed /v1/batch response — and the
	// inbound request's own deadline bounds it when earlier (default 30s).
	RequestTimeout time.Duration
	// RespCacheEntries bounds the router's front response cache (0 selects
	// the default 4096, matching the backends; negative disables caching so
	// every request crosses the proxied hop).
	RespCacheEntries int
	// Registry receives router metrics; nil disables them (the obs nil path).
	Registry *obs.Registry
	// Recorder is the router's flight recorder; nil disables records.
	Recorder *obs.Recorder
	// Logf receives health transitions and drain progress (default: drop).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.VNodes == 0 {
		c.VNodes = 64
	}
	if c.HotThreshold == 0 {
		c.HotThreshold = 64
	}
	if c.HotWindow == 0 {
		c.HotWindow = 4096
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 2
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Router consistent-hashes requests onto the backend ring. Construct with
// New; safe for concurrent use; Close when done.
type Router struct {
	cfg      Config
	ring     *ring
	sketch   *sketch // nil when spilling is disabled
	backends []*backend
	mux      *http.ServeMux
	rec      *obs.Recorder
	eligible func(int) bool // precomputed predicate; alloc-free routing

	// Front response cache + its singleflight fill; both nil when
	// RespCacheEntries is negative (every request then crosses the hop).
	resp   *server.RespCache
	flight *fillGroup

	rr        atomic.Uint64 // spill round-robin cursor
	draining  atomic.Bool
	inflight  atomic.Int64
	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once

	// Metrics, nil (discarding) without a registry.
	reqTime    *obs.Histogram // wall time per proxied HTTP request, ns
	reqs       *obs.Counter   // proxied HTTP requests
	retries    *obs.Counter   // reroutes after a failed first hop
	proxyErrs  *obs.Counter   // failed hops: synthesized envelopes, cut streams
	hashes     *obs.Counter   // routing decisions that used the ring owner
	spills     *obs.Counter   // routing decisions that spilled a hot key
	wireFrames *obs.Counter   // wire frames terminated
	wireElems  *obs.Counter   // wire elements routed
}

// New builds a Router over cfg.Backends and starts its health prober.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: at least one backend is required")
	}
	if len(cfg.Backends) > 1<<16-1 {
		return nil, fmt.Errorf("fleet: %d backends exceeds the ring's capacity", len(cfg.Backends))
	}
	rt := &Router{
		cfg:       cfg,
		ring:      newRing(cfg.Backends, cfg.VNodes),
		rec:       cfg.Recorder,
		stopProbe: make(chan struct{}),
	}
	if cfg.HotThreshold > 0 {
		rt.sketch = newSketch(cfg.HotWindow)
	}
	if rt.resp = server.NewRespCache(cfg.RespCacheEntries); rt.resp != nil {
		rt.flight = newFillGroup()
	}
	for _, addr := range cfg.Backends {
		rt.backends = append(rt.backends, newBackend(addr))
	}
	rt.eligible = func(i int) bool { return rt.backends[i].eligible() }

	if reg := cfg.Registry; reg != nil {
		rt.reqTime = reg.Histogram("fleet.request_ns")
		rt.reqs = reg.Counter("fleet.requests")
		rt.retries = reg.Counter("fleet.retries")
		rt.proxyErrs = reg.Counter("fleet.proxy_errors")
		rt.hashes = reg.Counter("fleet.hashed")
		rt.spills = reg.Counter("fleet.spilled")
		rt.wireFrames = reg.Counter("fleet.wire_frames")
		rt.wireElems = reg.Counter("fleet.wire_elements")
		reg.Gauge("fleet.inflight", rt.inflight.Load)
		reg.Gauge("fleet.backends", func() int64 { return int64(len(rt.backends)) })
		reg.Gauge("fleet.backends_eligible", func() int64 {
			n := int64(0)
			for _, b := range rt.backends {
				if b.eligible() {
					n++
				}
			}
			return n
		})
		reg.Gauge("fleet.draining", func() int64 {
			if rt.draining.Load() {
				return 1
			}
			return 0
		})
		reg.Gauge("fleet.cache.size", func() int64 { return int64(rt.resp.Len()) })
		reg.Gauge("fleet.cache.hits", rt.resp.Hits)
		reg.Gauge("fleet.cache.misses", rt.resp.Misses)
		reg.Gauge("fleet.cache.evicts", rt.resp.Evicts)
		reg.Gauge("fleet.cache_hit_permille", rt.cacheHitPermille)
		for _, b := range rt.backends {
			b := b
			name := "fleet.backend." + b.addr
			b.hashed = reg.Counter(name + ".hashed")
			b.spilled = reg.Counter(name + ".spilled")
			reg.Gauge(name+".inflight", b.inflight.Load)
			reg.Gauge(name+".healthy", func() int64 {
				if b.eligible() {
					return 1
				}
				return 0
			})
		}
		if rt.rec != nil {
			reg.Gauge("fleet.recorder.retained", rt.rec.Retained)
		}
	}
	rt.routes()
	if cfg.ProbeInterval > 0 {
		rt.probeWG.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// Handler returns the root handler serving every router endpoint. The API
// paths dispatch straight to the proxy: ServeMux's catch-all pattern runs
// its wildcard matcher on every request (three allocations), which the warm
// path's budget cannot afford.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			rt.proxy(w, r)
			return
		}
		rt.mux.ServeHTTP(w, r)
	})
}

// SniffWire splits l between the two protocols: wire-magic connections are
// terminated by the router's wire proxy, everything else flows through the
// returned listener to the HTTP server — the same single-port deployment as
// sentineld itself.
func (rt *Router) SniffWire(l net.Listener) net.Listener {
	return wire.SplitListener(l, rt.serveWire)
}

// StartDrain makes /readyz report 503 and refuses new proxied work while
// in-flight hops complete. Idempotent.
func (rt *Router) StartDrain() { rt.draining.Store(true) }

// Drain starts draining and blocks until no proxied work is in flight or
// ctx expires.
func (rt *Router) Drain(ctx context.Context) error {
	rt.StartDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for rt.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// InFlight reports proxied requests and wire exchanges currently running.
func (rt *Router) InFlight() int64 { return rt.inflight.Load() }

// ResetCache drops every entry in the front response cache (no-op when
// caching is disabled). The cache assumes backend artifacts are immutable
// for the router's lifetime — the backends drop their own response caches
// on Runner.OnReset, but no reset signal crosses the fleet, so an operator
// who resets or reloads backend state at runtime must call this (or restart
// the router) to keep pre-reset bytes from being served.
func (rt *Router) ResetCache() { rt.resp.Reset() }

// Close stops the prober and tears down every backend's connection pools.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		close(rt.stopProbe)
		rt.probeWG.Wait()
		for _, b := range rt.backends {
			b.close()
		}
	})
}

func (rt *Router) routes() {
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	rt.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		switch {
		case rt.draining.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n")) //nolint:errcheck
		case rt.eligibleCount() == 0:
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("no ready backend\n")) //nolint:errcheck
		default:
			w.Write([]byte("ready\n")) //nolint:errcheck
		}
	})
	rt.mux.HandleFunc("GET /fleet/status", rt.handleStatus)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /debug/requests", rt.handleDebugRequests)
	rt.mux.HandleFunc("GET /debug/requests.json", rt.handleDebugRequestsJSON)
	rt.mux.Handle("GET /debug/vars", expvar.Handler())
	rt.mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
	rt.mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
	rt.mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
	rt.mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
	rt.mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	// Everything else is the backends' API: fingerprint, route, proxy.
	rt.mux.HandleFunc("/", rt.proxy)
}

func (rt *Router) eligibleCount() int {
	n := 0
	for _, b := range rt.backends {
		if b.eligible() {
			n++
		}
	}
	return n
}

// route picks the backend for key k: the ring owner normally, or — when the
// sketch marks k hot and at least two backends are eligible — the next
// round-robin backend, replicating the hot key's response bytes across the
// fleet. Allocation-free.
func (rt *Router) route(k fingerprint.Key) (idx int, spilled bool) {
	if rt.sketch != nil && int(rt.sketch.touch(k)) >= rt.cfg.HotThreshold {
		if i := rt.pickSpill(-1); i >= 0 {
			return i, true
		}
	}
	return rt.ring.pick(ringHash(k), -1, rt.eligible), false
}

// Route reports which backend address a request with fingerprint k would be
// sent to and whether hot-key spill overrode ring ownership, without
// proxying anything. The proxy paths use the same decision; this is the
// entry point for benchmarks and tooling. addr is "" when no backend is
// eligible. Allocation-free.
func (rt *Router) Route(k fingerprint.Key) (addr string, spilled bool) {
	idx, spilled := rt.route(k)
	if idx < 0 {
		return "", false
	}
	return rt.backends[idx].addr, spilled
}

// pickSpill returns the next round-robin eligible backend (excluding skip),
// or -1 when fewer than two backends are eligible — with one backend,
// spilling is meaningless and the ring owner wins.
func (rt *Router) pickSpill(skip int) int {
	n := len(rt.backends)
	if n < 2 {
		return -1
	}
	eligible := 0
	for i := 0; i < n; i++ {
		if i != skip && rt.eligible(i) {
			eligible++
		}
	}
	if eligible < 2 && skip < 0 {
		return -1
	}
	if eligible == 0 {
		return -1
	}
	start := int(rt.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		j := (start + i) % n
		if j != skip && rt.eligible(j) {
			return j
		}
	}
	return -1
}

// reroute picks the retry target after backend `failed` could not be
// reached: the ring successor for owner-routed keys, the next round-robin
// backend for spilled ones.
func (rt *Router) reroute(k fingerprint.Key, spilled bool, failed int) int {
	if spilled {
		return rt.pickSpill(failed)
	}
	return rt.ring.pick(ringHash(k), failed, rt.eligible)
}

// fleetBackendHeader names the backend that answered a proxied request.
const fleetBackendHeader = "X-Fleet-Backend"

// requestIDHeader echoes a client-supplied request ID on cache-served
// responses, exactly as a backend would have.
const requestIDHeader = "X-Request-Id"

// writeEnvelope synthesizes a backend-shaped JSON error envelope (the
// trailing newline matches the backends' json.Encoder output).
func writeEnvelope(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":{\"kind\":%q,\"message\":%q}}\n", kind, msg)
}

// envelopeBody is writeEnvelope's body bytes, for the wire proxy's
// element-level synthesis.
func envelopeBody(kind, msg string) []byte {
	return []byte(fmt.Sprintf("{\"error\":{\"kind\":%q,\"message\":%q}}\n", kind, msg))
}

// proxy is the catch-all handler: front-cache probe, fingerprint, route,
// proxied hop with one bounded retry, byte-faithful relay of whatever the
// backend answered. Warm repeats never reach a backend; cacheable misses
// fill the cache under a per-fingerprint singleflight so a cold storm costs
// one hop.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	var t0 time.Time
	if rt.reqTime != nil {
		t0 = time.Now()
	}
	if rt.draining.Load() {
		writeEnvelope(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	rt.inflight.Add(1)
	defer rt.inflight.Add(-1)
	rt.reqs.Inc()
	clientID := r.Header.Get(requestIDHeader)

	// Slurp the body into pooled scratch: the fingerprint needs its bytes,
	// and the retry needs to replay them. A body over the backends' limit is
	// forwarded as a chunked stream — the backend's own MaxBytesReader
	// produces the canonical refusal — but cannot be retried or cached.
	var body []byte
	var overflow io.Reader
	if r.Body != nil && r.Body != http.NoBody {
		bb := getBodyBuf()
		defer putBodyBuf(bb)
		bb.lim = io.LimitedReader{R: r.Body, N: server.MaxBodyBytes + 1}
		if _, err := bb.buf.ReadFrom(&bb.lim); err != nil {
			writeEnvelope(w, http.StatusBadRequest, "bad_request", "fleet: reading request body: "+err.Error())
			return
		}
		body = bb.buf.Bytes()
		if len(body) > server.MaxBodyBytes {
			overflow = r.Body
		}
	}

	// Warm fast path: a byte-identical repeat of an already-proxied request
	// is answered from the front cache with one Write — before routing, the
	// timeout context, or any backend traffic. Head-sampled like the
	// backends' own warm path: an unsampled hit records nothing.
	probeable := overflow == nil && rt.resp != nil && cacheProbeable(r.Method, r.URL.Path, body)
	var rd *obs.Record
	var rawK fingerprint.Key
	if probeable {
		rawK = rawRequestKey(r.URL.Path, r.URL.RawQuery, body)
		if rt.rec.SampleWarm() {
			rd = rt.rec.Begin(r.URL.Path)
			rd.SetID(clientID)
			rd.SetFingerprint(rawK[:8])
			rd.Start(obs.StageFleetCache, obs.ArgRaw)
		}
		if rt.serveCached(w, rawK, clientID) {
			if rt.reqTime != nil {
				rt.reqTime.Observe(time.Since(t0).Nanoseconds())
			}
			if rd != nil {
				rd.End()
				rd.MarkWarm()
				rd.SetTier(tierRaw)
				rd.Finish(http.StatusOK)
			}
			return
		}
		rd.End() // nil-safe: closes the lookup span on a sampled miss
	}

	// Missed path: every request gets a record; a record carried over from a
	// sampled warm miss is kept.
	if rd == nil && rt.rec != nil {
		rd = rt.rec.Begin(r.URL.Path)
		rd.SetID(clientID)
	}
	status := http.StatusOK
	defer func() { rd.Finish(status) }()

	// Canonical probe: a textual variant of a cached request (field order,
	// whitespace, defaulted width, model aliases) hits under the strict
	// canonical key — only when the backend would demonstrably accept the
	// body (see canonCacheKey).
	var canonK fingerprint.Key
	var canonOK bool
	if probeable {
		rd.Start(obs.StageFleetCache, obs.ArgCanon)
		canonK, canonOK = canonCacheKey(r.Method, r.URL.Path, r.URL.RawQuery, body)
		hit := canonOK && rt.serveCached(w, canonK, clientID)
		rd.End()
		if hit {
			rd.SetTier(tierCanon)
			if rt.reqTime != nil {
				rt.reqTime.Observe(time.Since(t0).Nanoseconds())
			}
			return
		}
	}

	// Singleflight the fill: one hop per cold fingerprint; waiters are handed
	// the owner's bytes. An owner that fails or proves uncacheable resolves
	// empty-handed (the deferred abandon is idempotent against the success
	// path's resolve) and waiters take their own hop — a failed fill is
	// never shared.
	var fill *fillCall
	if canonOK {
		var owner bool
		fill, owner = rt.flight.begin(canonK)
		if owner {
			defer func() { rt.flight.resolve(canonK, fill, nil, "", false) }()
		} else {
			rd.Start(obs.StageSFWait, obs.ArgCanon)
			select {
			case <-fill.done:
				rd.End()
				if fill.ok {
					h := w.Header()
					h.Set("Content-Type", fill.ctype)
					h.Set(fleetBackendHeader, cacheBackendName)
					if clientID != "" {
						h.Set(requestIDHeader, clientID)
					}
					w.Write(fill.body) //nolint:errcheck
					rd.SetTier(tierCanon)
					if rt.reqTime != nil {
						rt.reqTime.Observe(time.Since(t0).Nanoseconds())
					}
					return
				}
			case <-r.Context().Done():
				rd.End()
				status = http.StatusGatewayTimeout
				writeEnvelope(w, status, "timeout",
					"fleet: timed out waiting for an identical in-flight request")
				return
			}
		}
	}

	rd.Start(obs.StageRoute, obs.ArgNone)
	var key fingerprint.Key
	if canonOK {
		key = canonK // the strict cache key doubles as the routing key
	} else {
		key = httpRouteKey(r.Method, r.URL.Path, r.URL.RawQuery, body)
	}
	rd.SetFingerprint(key[:8])
	idx, spilled := rt.route(key)
	rd.End()
	if idx < 0 {
		status = http.StatusServiceUnavailable
		rt.proxyErrs.Inc()
		writeEnvelope(w, status, "unavailable", "fleet: no ready backend")
		return
	}
	rt.countRoute(idx, spilled)

	arg := obs.ArgHashed
	if spilled {
		arg = obs.ArgSpilled
	}
	status = rt.forward(w, r, rd, arg, key, rawK, canonK, canonOK, fill, body, overflow, idx, spilled)
	if rt.reqTime != nil {
		rt.reqTime.Observe(time.Since(t0).Nanoseconds())
	}
}

// forward is the proxied hop with its one bounded retry: one raw HTTP/1.1
// exchange with the routed backend (see rawhttp.go), rerouted once when it
// fails or meets a draining refusal. A chunked 200 from /v1/batch or an
// unknown path streams to the client; every other answer is buffered, so
// nothing reaches the client until the hop has fully succeeded. A 200
// under a trusted canonical key fills the front cache and resolves the
// singleflight.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, rd *obs.Record, arg obs.Arg,
	key, rawK, canonK fingerprint.Key, canonOK bool, fill *fillCall, body []byte, overflow io.Reader,
	idx int, spilled bool) int {
	ps := getRawScratch()
	defer putRawScratch(ps)
	ctx := r.Context()
	stream := w
	if deterministicEndpoint(r.Method, r.URL.Path) {
		stream = nil
	}
	if overflow != nil {
		// A writer still reading the client's body when the exchange ends
		// must not wait on a client that has stalled.
		ps.stopBody = func() { http.NewResponseController(w).SetReadDeadline(time.Now()) } //nolint:errcheck
	}
	for attempt := 0; ; attempt++ {
		b := rt.backends[idx]
		b.inflight.Add(1)
		rd.Start(obs.StageProxy, arg)
		deadline := time.Now().Add(rt.cfg.RequestTimeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		buildRawRequest(ps, r, b.addr, body, overflow != nil)
		streamed, err := b.exchange(ctx, stream, ps, deadline, overflow)
		rd.End()
		b.inflight.Add(-1)
		res := &ps.resp
		switch {
		case streamed && err != nil:
			// The client has the head and part of the body: no reroute, and
			// the response is aborted so the client sees the cut rather than
			// a clean end.
			if !errors.Is(err, errClientWrite) && ctx.Err() == nil {
				rt.proxyErrs.Inc()
				rt.logf("fleet: backend %s failed mid-stream: %v", b.addr, err)
			}
			panic(http.ErrAbortHandler)
		case streamed:
			return http.StatusOK
		case err != nil && ctx.Err() != nil:
			// The client left, or its deadline passed: no evidence against
			// the backend, and no one to retry for.
			writeEnvelope(w, http.StatusGatewayTimeout, "timeout",
				"fleet: request ended before the backend answered")
			return http.StatusGatewayTimeout
		case err != nil:
			// Only a fresh dial failure marks the backend down (a stale
			// pooled connection already redialed inside the exchange).
			var dial *rawDialError
			if errors.As(err, &dial) {
				rt.noteDialFailure(b)
			}
		case res.Status == http.StatusServiceUnavailable && isDrainingBody(res.Body):
			// A draining backend refused after the probe window: reroute
			// like a connect failure, or relay the refusal verbatim.
			if !b.draining.Swap(true) {
				rt.logf("fleet: backend %s draining; rerouting new keys", b.addr)
			}
		default:
			if canonOK && res.Status == http.StatusOK {
				// Fill both lanes with one immutable copy (the scratch bytes
				// are recycled); the singleflight hands waiters the same
				// copy. Only 200 envelopes are stored — a refusal is never
				// memoized.
				cbody := append([]byte(nil), res.Body...)
				ctype := string(res.Header("content-type"))
				rt.resp.Put(canonK, cbody, ctype)
				rt.resp.Put(rawK, cbody, ctype)
				rt.flight.resolve(canonK, fill, cbody, ctype, true)
			}
			relayRaw(w, ps, b.addr)
			return res.Status
		}
		// One reroute — safe because every proxied op is idempotent and
		// replayable from the slurped body; an over-limit body already fed
		// its stream to this hop, so it cannot be replayed.
		if attempt == 0 && overflow == nil {
			if next := rt.reroute(key, spilled, idx); next >= 0 {
				rt.retries.Inc()
				rt.countRoute(next, spilled)
				idx = next
				continue
			}
		}
		if err == nil {
			relayRaw(w, ps, b.addr)
			return res.Status
		}
		rt.proxyErrs.Inc()
		writeEnvelope(w, http.StatusServiceUnavailable, "unavailable",
			fmt.Sprintf("fleet: backend %s unreachable: %v", b.addr, err))
		return http.StatusServiceUnavailable
	}
}

// cacheHitPermille reports front-cache hits per thousand lookups (0 before
// any traffic); the CI fleet gate reads it from /metrics as
// fleet_cache_hit_permille.
func (rt *Router) cacheHitPermille() int64 {
	h, m := rt.resp.Hits(), rt.resp.Misses()
	if h+m == 0 {
		return 0
	}
	return h * 1000 / (h + m)
}

// CacheLen reports the front response cache's current entry count (0 when
// caching is disabled).
func (rt *Router) CacheLen() int { return rt.resp.Len() }

// countRoute attributes one routing decision to its backend.
func (rt *Router) countRoute(idx int, spilled bool) {
	if spilled {
		rt.spills.Inc()
		rt.backends[idx].spilled.Inc()
	} else {
		rt.hashes.Inc()
		rt.backends[idx].hashed.Inc()
	}
}

// backendStatus is one backend's row in /fleet/status.
type backendStatus struct {
	Addr     string `json:"addr"`
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining"`
	Failures int    `json:"probe_failures"`
	Inflight int64  `json:"inflight"`
	Hashed   int64  `json:"hashed"`
	Spilled  int64  `json:"spilled"`
}

// handleStatus reports the router's health and routing view as JSON.
func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Draining bool            `json:"draining"`
		VNodes   int             `json:"vnodes_per_backend"`
		Backends []backendStatus `json:"backends"`
	}{
		Draining: rt.draining.Load(),
		VNodes:   rt.cfg.VNodes,
	}
	for _, b := range rt.backends {
		out.Backends = append(out.Backends, backendStatus{
			Addr:     b.addr,
			Ready:    b.ready.Load(),
			Draining: b.draining.Load(),
			Failures: int(b.failures.Load()),
			Inflight: b.inflight.Load(),
			Hashed:   b.hashed.Value(),
			Spilled:  b.spilled.Value(),
		})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if rt.cfg.Registry == nil {
		http.Error(w, "metrics registry disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.cfg.Registry.WritePrometheus(w) //nolint:errcheck
}

func (rt *Router) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if rt.rec == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	obs.WriteRequestsHTML(w, "sentinelfront", rt.rec.Snapshot(), rt.rec.Retained()) //nolint:errcheck
}

func (rt *Router) handleDebugRequestsJSON(w http.ResponseWriter, r *http.Request) {
	if rt.rec == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	views := rt.rec.Snapshot()
	if views == nil {
		views = []*obs.RecordView{}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(views) //nolint:errcheck
}
