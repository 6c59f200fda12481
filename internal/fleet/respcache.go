package fleet

// The router's front response cache: the same two-tier warm path the
// backends serve from (internal/server/respcache.go — the LRU itself is
// shared code), applied before routing. A warm repeat is served with one
// w.Write before the ring is consulted, a timeout context exists, or a
// byte crosses the proxied hop; `X-Fleet-Backend: cache` marks the hit so
// affinity tests (and sentinelload's summary) can tell it from a backend
// answer.
//
// Keying discipline. The raw-request key (exact path+query+body bytes) is
// always safe: it can only ever hit an entry filled by a byte-identical
// request. The canonical key is stricter here than the routing key: routing
// may be lax (a misrouted request is merely slower), but serving a cached
// 200 for a request the backend would have refused breaks the byte-identity
// contract. canonCacheKey therefore decodes with the backends' own
// request codec and strictness (DisallowUnknownFields over the shared
// request structs, the wrapper's timeout_ms validation) and applies the
// backends' bypass rules:
// `full` and `fault_segment` requests are never probed or filled, only 200
// envelopes are stored. A request that fails the strict gate still routes
// on the lax key — it just always takes the proxied hop, and its non-200
// answer is never memoized.
//
// Fill is singleflighted per canonical key: a cold storm on one
// fingerprint costs one backend hop; waiters are handed the owner's bytes.
// An owner whose hop fails or proves uncacheable resolves "no result" and
// the waiters fall through to their own hop — a failed fill is never
// shared, echoing the eval flight's poisoning rule.
//
// Lifetime. The front cache assumes backend artifacts are immutable for the
// router's lifetime: the backends drop their own response caches on
// Runner.OnReset, but no reset signal crosses the fleet. An operator who
// resets or reloads backend state at runtime must call Router.ResetCache
// (or restart the router) so pre-reset bytes cannot keep being served.

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"sentinel/internal/fingerprint"
	"sentinel/internal/server"
)

// cacheBackendName is the X-Fleet-Backend value marking a front-cache hit.
const cacheBackendName = "cache"

// Tier labels for the recorder (mirroring the backends' vocabulary).
const (
	tierRaw   = "raw"
	tierCanon = "canon"
)

// serveCached writes the cached response under k, tagging the hit and
// echoing a client request ID exactly as a backend would. One lookup, two
// header sets, one Write — the entire warm path after fingerprinting.
func (rt *Router) serveCached(w http.ResponseWriter, k fingerprint.Key, clientID string) bool {
	body, ctype, ok := rt.resp.Get(k)
	if !ok {
		return false
	}
	h := w.Header()
	h.Set("Content-Type", ctype)
	h.Set(fleetBackendHeader, cacheBackendName)
	if clientID != "" {
		h.Set(requestIDHeader, clientID)
	}
	w.Write(body) //nolint:errcheck // client gone; nothing left to do
	return true
}

// deterministicEndpoint reports whether a request names one of the three
// deterministic API endpoints. Their answers are bounded, so the hop always
// buffers them whole and can reroute after a failure mid-body; /v1/batch
// and unknown paths may stream instead.
func deterministicEndpoint(method, path string) bool {
	switch path {
	case "/v1/simulate", "/v1/schedule":
		return method == http.MethodPost
	case "/v1/figures":
		return method == http.MethodGet
	}
	return false
}

// cacheProbeable reports whether a request may ever consult or fill the
// front cache: the deterministic endpoints, minus the sniffed bypass ops.
// Everything else — /v1/batch (streamed), unknown paths, fault/full
// simulates — always crosses the hop.
func cacheProbeable(method, path string, body []byte) bool {
	return deterministicEndpoint(method, path) && !(path == "/v1/simulate" && server.CacheOptOut(body))
}

// canonCacheKey returns the canonical cache key for a request whose
// response the backend would compute from that fingerprint alone. ok is
// false whenever the backend might answer something the fingerprint does
// not determine — an undecodable or unknown-field body, an unresolvable
// machine, a bypass op, an invalid timeout_ms — so a cached 200 can never
// mask a refusal the direct path would have produced. When ok, the key
// equals the routing key: one decode feeds both (bodyRouteKey).
func canonCacheKey(method, path, rawQuery string, body []byte) (fingerprint.Key, bool) {
	if !validTimeoutQuery(rawQuery) {
		return fingerprint.Key{}, false
	}
	switch path {
	case "/v1/simulate", "/v1/schedule":
		if method != http.MethodPost {
			return fingerprint.Key{}, false
		}
		k, strict, ok := bodyRouteKey(body, path == "/v1/schedule")
		return k, ok && strict
	case "/v1/figures":
		if method != http.MethodGet {
			return fingerprint.Key{}, false
		}
		return figuresRouteKey(rawQuery)
	}
	return fingerprint.Key{}, false
}

// validTimeoutQuery mirrors the backends' v1-wrapper timeout_ms check: a
// present-but-invalid value is a 400 on the direct path, so it must never
// be served from cache. Only plain positive decimal values pass: the
// backend's queryValue unescapes '%' and '+' forms before its Atoi, so a
// raw value like "+5" (which Atoi alone would accept) or "%35" (which the
// backend would accept) must not be trusted here — an escaped value simply
// forgoes the cache and takes the hop. A valid deadline is cacheable — a
// warm backend serves its own cached bytes without consulting the deadline
// either.
func validTimeoutQuery(rawQuery string) bool {
	for len(rawQuery) > 0 {
		part := rawQuery
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			part, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			rawQuery = ""
		}
		const key = "timeout_ms"
		if len(part) > len(key)+1 && part[:len(key)] == key && part[len(key)] == '=' {
			v := part[len(key)+1:]
			for i := 0; i < len(v); i++ {
				if v[i] < '0' || v[i] > '9' {
					return false
				}
			}
			ms, err := strconv.Atoi(v)
			if err != nil || ms < 1 {
				return false
			}
		}
	}
	return true
}

// fillCall is one in-flight cache fill: waiters block on done; on ok the
// owner's immutable response copy is shared.
type fillCall struct {
	done     chan struct{}
	body     []byte
	ctype    string
	ok       bool
	resolved bool
}

// fillGroup is the per-canonical-key singleflight for cache fills.
type fillGroup struct {
	mu sync.Mutex
	m  map[fingerprint.Key]*fillCall
}

func newFillGroup() *fillGroup {
	return &fillGroup{m: make(map[fingerprint.Key]*fillCall)}
}

// begin registers interest in filling k. The first caller per key becomes
// the owner and must resolve exactly once (the proxy path defers an
// empty-handed resolve so error returns cannot strand waiters).
func (g *fillGroup) begin(k fingerprint.Key) (c *fillCall, owner bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[k]; ok {
		return c, false
	}
	c = &fillCall{done: make(chan struct{})}
	g.m[k] = c
	return c, true
}

// resolve publishes the owner's outcome and unregisters the call. body must
// be a copy nothing else writes to. Idempotent: the first resolve wins, so
// the success path's explicit resolve and the deferred abandon compose.
func (g *fillGroup) resolve(k fingerprint.Key, c *fillCall, body []byte, ctype string, ok bool) {
	g.mu.Lock()
	if g.m[k] == c {
		delete(g.m, k)
	}
	already := c.resolved
	c.resolved = true
	g.mu.Unlock()
	if already {
		return
	}
	c.body, c.ctype, c.ok = body, ctype, ok
	close(c.done)
}

// fpScratch pools the raw-fingerprint accumulation buffer, mirroring the
// backends' own warm path (fingerprint.RawRequestInto): the warm hit must
// not pay an allocation just to compute its key.
var fpScratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// rawRequestKey fingerprints a request's exact bytes over pooled scratch.
func rawRequestKey(path, rawQuery string, body []byte) fingerprint.Key {
	sp := fpScratchPool.Get().(*[]byte)
	k, b := fingerprint.RawRequestInto(*sp, path, rawQuery, body)
	if cap(b) <= 1<<20 {
		*sp = b
		fpScratchPool.Put(sp)
	}
	return k
}

// bodyBuf is the pooled request-body scratch for the proxy path: the
// accumulation buffer and the limit reader bounding it, recycled per
// request so the per-proxy io.ReadAll allocation is gone from the warm
// path.
type bodyBuf struct {
	buf bytes.Buffer
	lim io.LimitedReader
}

var bodyBufPool = sync.Pool{New: func() any { return new(bodyBuf) }}

func getBodyBuf() *bodyBuf {
	b := bodyBufPool.Get().(*bodyBuf)
	b.buf.Reset()
	return b
}

// putBodyBuf recycles the scratch; buffers grown past 1 MiB are dropped so
// one oversized body cannot pin memory in the pool.
func putBodyBuf(b *bodyBuf) {
	b.lim.R = nil
	if b.buf.Cap() > 1<<20 {
		return
	}
	bodyBufPool.Put(b)
}
