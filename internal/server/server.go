// Package server is the long-lived serving layer over the compile-and-
// simulate pipeline: an HTTP/JSON front-end that owns one process-wide
// eval.Runner and adds the concerns the Runner lacks — bounded admission
// with per-request deadlines, coalescing of identical requests (workload
// cells through the Runner's singleflight caches, inline source programs
// through a content-hash cache), typed error responses, readiness and
// graceful drain, and request metrics.
//
// Endpoints:
//
//	POST /v1/schedule   assemble + form superblocks + schedule a program
//	POST /v1/simulate   run a program and return sim result + stats
//	GET  /v1/figures    paper figure/table sections (byte-identical to paperfigs)
//	GET  /healthz       liveness (200 while the process serves)
//	GET  /readyz        readiness (503 while warming or draining)
//	GET  /debug/vars    expvar (published metrics registries)
//	GET  /debug/pprof/  net/http/pprof profiles
package server

import (
	"bytes"
	"context"
	"expvar"
	"io"
	"net/http"
	netpprof "net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sentinel/internal/eval"
	"sentinel/internal/obs"
)

// Config sizes the serving layer. The zero value of every field selects a
// sensible default.
type Config struct {
	// Workers is the eval.Runner's parallelism (0 = GOMAXPROCS).
	Workers int
	// MaxInFlight bounds concurrently executing requests (default 16).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; anything
	// beyond is refused with 429 (default 64).
	MaxQueue int
	// RequestTimeout is the default per-request deadline; a request may
	// shorten (never extend) it with ?timeout_ms= (default 30s).
	RequestTimeout time.Duration
	// MaxSourcePrograms bounds the inline-source compile memo (default 256).
	MaxSourcePrograms int
	// RespCacheEntries bounds the response-byte cache — the LRU of fully
	// serialized success responses that lets a repeat request skip all
	// marshal work (default 4096; negative disables).
	RespCacheEntries int
	// Registry receives request metrics and the Runner's cache/utilization
	// instruments; nil disables metrics entirely (the obs nil path).
	Registry *obs.Registry
	// Recorder is the request flight recorder: span traces, /debug/requests
	// and the access-log sink. Nil disables request records entirely (the
	// obs nil path); request-ID echo of client-supplied IDs still works.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 16
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxSourcePrograms == 0 {
		c.MaxSourcePrograms = 256
	}
	return c
}

// Server is the serving layer. Construct with New; safe for concurrent use.
type Server struct {
	cfg     Config
	runner  *eval.Runner
	adm     *admission
	sources *eval.Flight[sourceKey, *compiled]
	resp    *RespCache
	mux     *http.ServeMux
	rec     *obs.Recorder
	ready   atomic.Bool

	// batchesInFlight counts batches currently streaming (both entry
	// points). It is not an admission signal — each batch holds one
	// admission slot — but the drain path reports it so an operator can see
	// in-flight batches run to completion.
	batchesInFlight atomic.Int64

	// Metrics, nil (the obs discard path) unless Config.Registry was set.
	reqTime    *obs.Histogram // wall time per /v1 request, ns
	decodeTime *obs.Histogram // request body decode, ns
	reqs       *obs.Counter   // admitted /v1 requests
	rejected   *obs.Counter   // refused at admission (overload/draining/deadline)
	errs4xx    *obs.Counter
	errs5xx    *obs.Counter
	batches    *obs.Counter // batch frames admitted (HTTP + wire)
	batchElems *obs.Counter // batch elements across admitted frames
	coalesced  *obs.Counter // batch elements answered by an in-frame twin
	panics     *obs.Counter // handler and batch-element panics recovered
}

// New builds a Server around a fresh eval.Runner. The server starts ready;
// callers that warm caches first should SetReady(false) before serving and
// flip it after warmup.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		runner:  eval.NewRunner(cfg.Workers),
		adm:     newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		sources: eval.NewFlight[sourceKey, *compiled](obs.ArgSources, max(cfg.MaxSourcePrograms, 1)),
		resp:    NewRespCache(cfg.RespCacheEntries),
		rec:     cfg.Recorder,
	}
	// Response bytes are rendered from Runner artifacts; dropping the
	// artifacts must drop the bytes memoized on top of them.
	s.runner.OnReset(s.resp.Reset)
	s.ready.Store(true)
	if reg := cfg.Registry; reg != nil {
		s.runner.SetMetrics(reg)
		s.reqTime = reg.Histogram("server.request_ns")
		s.decodeTime = reg.Histogram("server.decode_ns")
		s.reqs = reg.Counter("server.requests")
		s.rejected = reg.Counter("server.rejected")
		s.errs4xx = reg.Counter("server.errors_4xx")
		s.errs5xx = reg.Counter("server.errors_5xx")
		s.batches = reg.Counter("server.batches")
		s.batchElems = reg.Counter("server.batch_elements")
		s.coalesced = reg.Counter("server.batch_coalesced")
		s.panics = reg.Counter("server.panics")
		reg.Gauge("server.batches_inflight", s.BatchesInFlight)
		reg.Gauge("server.inflight", s.adm.InFlight)
		reg.Gauge("server.queued", s.adm.Queued)
		reg.Gauge("server.draining", func() int64 {
			if s.adm.draining.Load() {
				return 1
			}
			return 0
		})
		reg.Gauge("server.cache_hit_permille", s.cacheHitPermille)
		reg.Gauge("server.respcache.size", func() int64 { return int64(s.resp.Len()) })
		reg.Gauge("server.respcache.hits", func() int64 {
			if s.resp == nil {
				return 0
			}
			return s.resp.hits.Load()
		})
		reg.Gauge("server.respcache.misses", func() int64 {
			if s.resp == nil {
				return 0
			}
			return s.resp.misses.Load()
		})
		reg.Gauge("server.respcache.evicts", func() int64 {
			if s.resp == nil {
				return 0
			}
			return s.resp.evicts.Load()
		})
		if s.rec != nil {
			reg.Gauge("server.recorder.retained", s.rec.Retained)
		}
	}
	s.routes()
	return s
}

// Runner exposes the process-wide evaluation runner (tests and warmup).
func (s *Server) Runner() *eval.Runner { return s.runner }

// BatchesInFlight reports how many batches are currently streaming — the
// signal sentineld's drain log uses to show in-flight batches completing.
func (s *Server) BatchesInFlight() int64 { return s.batchesInFlight.Load() }

// Handler returns the root handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// SetReady flips the /readyz signal (warmup gating).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// StartDrain makes /readyz report 503 and refuses new /v1 requests while
// in-flight ones complete. Idempotent.
func (s *Server) StartDrain() {
	s.adm.startDrain()
	s.ready.Store(false)
}

// Drain starts draining and blocks until no request is in flight or ctx
// expires. The HTTP listener's own Shutdown still applies on top: Drain
// settles the admission layer, Shutdown the connections.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for !s.adm.settled() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// cacheHitPermille summarizes all Runner caches into one effectiveness
// gauge: hits per thousand lookups across builds, forms, scheds and cells.
// Uses the Runner's allocation-free totals — this gauge is polled by every
// /debug/vars scrape on a hot service.
func (s *Server) cacheHitPermille() int64 {
	hits, misses := s.runner.CacheHitsMisses()
	total := hits + misses
	if total == 0 {
		return 0
	}
	return hits * 1000 / total
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/schedule", s.v1("/v1/schedule", s.handleSchedule))
	s.mux.HandleFunc("POST /v1/simulate", s.v1("/v1/simulate", s.handleSimulate))
	s.mux.HandleFunc("POST /v1/batch", s.v1("/v1/batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/figures", s.v1("/v1/figures", s.handleFigures))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /debug/requests.json", s.handleDebugRequestsJSON)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		switch {
		case s.adm.draining.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n")) //nolint:errcheck
		case !s.ready.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("warming\n")) //nolint:errcheck
		default:
			w.Write([]byte("ready\n")) //nolint:errcheck
		}
	})
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
}

// requestIDHeader is the propagation header tying responses, the flight
// recorder and the access log together. The literal is in canonical MIME
// form so Header.Get on it performs no canonicalization work.
const requestIDHeader = "X-Request-Id"

// Cache-tier labels for request records: which serving layer produced the
// response. Static strings — records alias them.
const (
	tierRaw   = "raw"   // raw-fingerprint response-byte cache
	tierCanon = "canon" // canonical-fingerprint response-byte cache
	tierCell  = "cell"  // runner's verified cell cache (computed or cached)
	tierFull  = "full"  // uncached per-request simulation
)

// v1 wraps an API handler with the serving concerns every /v1 endpoint
// shares: per-request deadline, admission, error envelope, request-ID echo,
// the flight-recorder record, and metrics. A handler panic is answered
// with the 500 internal envelope and counted in server.panics; the
// admission slot is released on the way out as on any return.
func (s *Server) v1(endpoint string, h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var t0 time.Time
		if s.reqTime != nil {
			t0 = time.Now()
		}
		// Echo a client-supplied request ID on every response, error
		// envelopes included. Get on the canonical constant is alloc-free;
		// Set (one header-slice alloc) only runs when the client sent one.
		clientID := r.Header.Get(requestIDHeader)
		if clientID != "" {
			w.Header().Set(requestIDHeader, clientID)
		}

		// rd is this request's flight-recorder record. On the warm fast path
		// it exists only for head-sampled hits — an unsampled warm hit must
		// record nothing — so a warm hit without a client ID carries no
		// generated request ID either (the documented fast-path exception).
		var rd *obs.Record

		// Warm fast path: a byte-identical repeat of an already-answered
		// request (same path, query and body bytes) is served straight from
		// the response cache — no JSON decode, no normalization, no
		// admission round-trip (the serve is a map lookup plus one Write,
		// cheaper than the bookkeeping that would otherwise guard it).
		// Draining still wins: a draining server refuses repeats too.
		if s.resp != nil && !s.adm.draining.Load() {
			rawK, sc, ok := s.fingerprintRaw(r)
			if sc != nil {
				defer putBodyScratch(sc)
			}
			if ok {
				if s.rec.SampleWarm() {
					rd = s.rec.Begin(endpoint)
					rd.SetID(clientID) // no-op when empty: keep the generated ID
					rd.SetFingerprint(rawK[:])
					if clientID == "" {
						w.Header().Set(requestIDHeader, rd.ID())
					}
					rd.Start(obs.StageRespCache, obs.ArgRaw)
				}
				if s.resp.Serve(w, rawK) {
					s.reqs.Inc()
					if s.reqTime != nil {
						s.reqTime.Observe(time.Since(t0).Nanoseconds())
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
				// Miss: remember the key so the handler's cache fill also
				// registers these exact request bytes for the next repeat.
				r = r.WithContext(context.WithValue(r.Context(), rawKeyCtxKey{}, rawK))
			}
		}

		// Admitted path: every request gets a record (its cost is noise
		// against ms-scale pipeline work); whether it is retained is decided
		// at Finish. A record carried over from a sampled warm miss is kept.
		if rd == nil && s.rec != nil {
			rd = s.rec.Begin(endpoint)
			rd.SetID(clientID)
			if clientID == "" {
				w.Header().Set(requestIDHeader, rd.ID())
			}
		}
		status := http.StatusOK
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					rd.Finish(http.StatusInternalServerError)
					panic(p)
				}
				s.panics.Inc()
				status = writeError(w, errPanicked).Status
				s.countStatus(status)
			}
			rd.Finish(status)
		}()

		ctx := r.Context()
		timeout := s.cfg.RequestTimeout
		if q, ok := queryValue(r.URL.RawQuery, "timeout_ms"); ok {
			ms, err := strconv.Atoi(q)
			if err != nil || ms < 1 {
				status = writeError(w, apiErrorf(http.StatusBadRequest, KindBadRequest,
					"invalid timeout_ms %q", q)).Status
				s.countStatus(status)
				return
			}
			if d := time.Duration(ms) * time.Millisecond; d < timeout {
				timeout = d
			}
		}
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		if rd != nil {
			ctx = obs.ContextWithRecord(ctx, rd)
		}

		rd.Start(obs.StageAdmission, obs.ArgNone)
		release, err := s.adm.acquire(ctx)
		rd.End()
		if err != nil {
			s.rejected.Inc()
			status = writeError(w, err).Status
			s.countStatus(status)
			return
		}
		defer release()
		s.reqs.Inc()

		if err := h(w, r.WithContext(ctx)); err != nil {
			status = writeError(w, err).Status
			s.countStatus(status)
		}
		if s.reqTime != nil {
			s.reqTime.Observe(time.Since(t0).Nanoseconds())
		}
	}
}

// rawKeyCtxKey carries the raw-request fingerprint from the v1 wrapper to
// the handler's cache fill (context is the only channel the handler
// signature offers; the value allocates on cache misses only).
type rawKeyCtxKey struct{}

// rawKeyFrom returns the raw-request key the v1 wrapper stashed, if any.
func rawKeyFrom(ctx context.Context) (respKey, bool) {
	k, ok := ctx.Value(rawKeyCtxKey{}).(respKey)
	return k, ok
}

// fingerprintRaw slurps the request body (bounded by the decode limit) into
// pooled scratch, fingerprints the raw request, and hands the body bytes
// back via r.Body for the normal decode path. The returned scratch (nil for
// bodyless requests) must be recycled with putBodyScratch at request end —
// it backs r.Body until then. ok is false when the body exceeds the limit
// or fails mid-read — those requests skip the fast path and the normal path
// owns the error, seeing the original byte stream.
func (s *Server) fingerprintRaw(r *http.Request) (k respKey, sc *bodyScratch, ok bool) {
	if r.Body == nil || r.Body == http.NoBody {
		return rawRequestKey(r.URL.Path, r.URL.RawQuery, nil), nil, true
	}
	sc = getBodyScratch()
	sc.lim = io.LimitedReader{R: r.Body, N: MaxBodyBytes + 1}
	_, err := sc.buf.ReadFrom(&sc.lim)
	if err != nil || sc.buf.Len() > MaxBodyBytes {
		r.Body = readCloser{io.MultiReader(bytes.NewReader(sc.buf.Bytes()), r.Body), r.Body}
		return respKey{}, sc, false
	}
	sc.hold(sc.buf.Bytes())
	r.Body = sc
	return rawRequestKey(r.URL.Path, r.URL.RawQuery, sc.buf.Bytes()), sc, true
}

// readCloser splices a replacement read stream onto the original body's
// Close (over-limit fallback path only).
type readCloser struct {
	io.Reader
	io.Closer
}

// queryValue extracts the value of key from a raw query string without
// materializing the url.Values map — the v1 wrapper runs this on every
// request, and the common case (no query at all) must cost nothing.
// Percent- or plus-escaped values take the slow unescape path.
func queryValue(rawQuery, key string) (string, bool) {
	for len(rawQuery) > 0 {
		part := rawQuery
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			part, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			rawQuery = ""
		}
		if len(part) > len(key)+1 && part[:len(key)] == key && part[len(key)] == '=' {
			v := part[len(key)+1:]
			if strings.ContainsAny(v, "%+") {
				if u, err := url.QueryUnescape(v); err == nil {
					return u, true
				}
			}
			return v, true
		}
	}
	return "", false
}

func (s *Server) countStatus(status int) {
	switch {
	case status >= 500:
		s.errs5xx.Inc()
	case status >= 400:
		s.errs4xx.Inc()
	}
}
