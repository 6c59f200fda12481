package fleet

// Per-backend state: the two connection pools — raw HTTP/1.1 for every HTTP
// exchange (proxied requests and /readyz probes alike), the wire protocol
// for wire frames — and the health view the eligibility predicate reads on
// every routing decision.
//
// Health is two signals, updated two ways. The prober polls /readyz: 200
// means ready, a 503 "draining" body means the backend is shutting down
// gracefully (alive — it finishes what it holds — but must receive no new
// keys), anything else means not ready. The proxy path adds a reactive
// edge: a connect failure marks the backend not-ready immediately, without
// waiting out a probe interval, so the retry-with-reroute and every
// subsequent routing decision steer around it at once; the prober's next
// 200 brings it back. Backends start optimistically ready so the router
// serves before the first probe completes.

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"sentinel/internal/obs"
)

// Connection sizing, one setting for every backend.
const (
	dialTimeout  = 2 * time.Second // bounds connection establishment
	wirePoolSize = 4               // idle wire connections kept per backend
	httpPoolSize = 64              // idle raw HTTP/1.1 connections kept per backend
)

// backend is one sentineld process behind the router.
type backend struct {
	addr string // host:port, as configured (ring placement hashes this)

	wirePool chan *wireConn // idle wire-protocol connections
	httpPool chan *wireConn // idle raw HTTP/1.1 connections

	ready    atomic.Bool  // last probe (or reactive edge) verdict
	draining atomic.Bool  // /readyz said "draining"
	failures atomic.Int32 // consecutive failed probes
	inflight atomic.Int64 // proxied requests + wire exchanges in flight

	// Per-backend routing counters. Standalone by default ( /fleet/status
	// reads them); a configured registry replaces them with its own so they
	// appear in /metrics too.
	hashed  *obs.Counter // requests routed here as ring owner
	spilled *obs.Counter // hot-key requests spilled here
}

// newBackend builds the backend handle and its connection pools.
func newBackend(addr string) *backend {
	b := &backend{
		addr:     addr,
		wirePool: make(chan *wireConn, wirePoolSize),
		httpPool: make(chan *wireConn, httpPoolSize),
		hashed:   new(obs.Counter),
		spilled:  new(obs.Counter),
	}
	b.ready.Store(true)
	return b
}

// eligible reports whether new keys may route here.
func (b *backend) eligible() bool { return b.ready.Load() && !b.draining.Load() }

// close tears down both pools.
func (b *backend) close() {
	for _, pool := range []chan *wireConn{b.wirePool, b.httpPool} {
	drain:
		for {
			select {
			case wc := <-pool:
				wc.conn.Close()
			default:
				break drain
			}
		}
	}
}

// wireConn is one pooled connection to a backend, wire-protocol or raw
// HTTP/1.1. An exchange owns the connection exclusively (both protocols
// are sequential per connection); a connection that sees any transport or
// framing error is closed instead of returned.
type wireConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// get returns an idle connection from pool or dials a fresh one, by the
// exchange's deadline, with a read buffer of size bytes; a nil pool always
// dials. pooled tells the caller whether a failure might just be a stale
// keep-alive (the backend closed it under the pool's feet) rather than a
// dead backend.
func (b *backend) get(pool chan *wireConn, size int, deadline time.Time) (wc *wireConn, pooled bool, err error) {
	select {
	case wc := <-pool:
		return wc, true, nil
	default:
	}
	d := net.Dialer{Timeout: dialTimeout, Deadline: deadline}
	conn, err := d.Dial("tcp", b.addr)
	if err != nil {
		return nil, false, err
	}
	return &wireConn{conn: conn, br: bufio.NewReaderSize(conn, size)}, false, nil
}

// put returns a healthy connection to pool (closing it when full).
func put(pool chan *wireConn, wc *wireConn) {
	wc.conn.SetDeadline(time.Time{}) //nolint:errcheck
	select {
	case pool <- wc:
	default:
		wc.conn.Close()
	}
}

// probeLoop polls every backend until stop closes. One goroutine per
// router; backends are probed concurrently within a round so one hung
// backend cannot delay the verdict on the others.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-tick.C:
			done := make(chan struct{}, len(rt.backends))
			for _, b := range rt.backends {
				go func(b *backend) { rt.probe(b); done <- struct{}{} }(b)
			}
			for range rt.backends {
				<-done
			}
		}
	}
}

// probe polls one backend's /readyz over the raw pool, under a
// ProbeTimeout deadline, and folds the verdict into its health state,
// logging transitions.
func (rt *Router) probe(b *backend) {
	ps := getRawScratch()
	defer putRawScratch(ps)
	ps.req = append(append(append(ps.req[:0], "GET /readyz HTTP/1.1\r\nHost: "...), b.addr...), "\r\n\r\n"...)
	ps.head = false
	_, err := b.exchange(context.Background(), nil, ps, time.Now().Add(rt.cfg.ProbeTimeout), nil)
	if err != nil {
		if int(b.failures.Add(1)) >= rt.cfg.FailureThreshold && b.ready.Swap(false) {
			rt.logf("fleet: backend %s unhealthy (%d consecutive probe failures): %v",
				b.addr, b.failures.Load(), err)
		}
		return
	}
	b.failures.Store(0)
	switch res := &ps.resp; {
	case res.Status == http.StatusOK:
		wasDraining := b.draining.Swap(false)
		if !b.ready.Swap(true) || wasDraining {
			rt.logf("fleet: backend %s ready", b.addr)
		}
	case isDrainingBody(res.Body):
		// Alive but going away: stop sending new keys, let it finish.
		if !b.draining.Swap(true) {
			rt.logf("fleet: backend %s draining; rerouting new keys", b.addr)
		}
	default:
		// Warming or otherwise not ready: ineligible immediately (no
		// failure threshold — the backend itself said not-ready).
		if b.ready.Swap(false) {
			rt.logf("fleet: backend %s not ready (%d %s)", b.addr, res.Status,
				bytes.TrimSpace(res.Body))
		}
	}
}

// isDrainingBody reports whether a /readyz or refusal body marks a
// draining backend: the plain-text "draining" readiness body, or the
// quoted "draining" kind wherever it sits inside a JSON envelope — not
// just in the first 64 bytes.
func isDrainingBody(body []byte) bool {
	return bytes.HasPrefix(bytes.TrimSpace(body), []byte("draining")) ||
		bytes.Contains(body, []byte(`"draining"`))
}

// noteDialFailure is the reactive unhealthy edge: a proxied hop that could
// not connect marks the backend down now, so the current request's retry
// and every following routing decision avoid it until a probe succeeds.
func (rt *Router) noteDialFailure(b *backend) {
	b.failures.Store(int32(rt.cfg.FailureThreshold))
	if b.ready.Swap(false) {
		rt.logf("fleet: backend %s unreachable; rerouting", b.addr)
	}
}
