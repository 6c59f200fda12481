package fleet

// The raw HTTP/1.1 proxied hop: the cache-miss path to a backend, built
// like sentinelload's closed-loop client instead of net/http. One proxied
// request is: serialize the request frame into pooled scratch (request
// line, relayed headers, explicit Content-Length, body — one conn.Write),
// then parse the response in place off the pooled connection's buffered
// reader with httpraw (status line, relayable headers, body read whole by
// Content-Length or de-chunked). Buffering the entire response before
// relaying is what keeps the router's retry semantics simple: nothing has
// been written to the client until the hop has fully succeeded, so a
// draining refusal or transport error can still reroute.
//
// Connection discipline mirrors the wire proxy's: per-backend keep-alive
// pool, a failure on a pooled connection before any response byte arrives
// is a stale keep-alive and redials transparently, and only a *fresh* dial
// failure (rawDialError) flips the backend's reactive unhealthy edge.
// /v1/batch never takes this path — its chunked stream must flush element
// by element, which is exactly what buffering forbids — and keeps the
// net/http client.

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"sentinel/internal/httpraw"
)

// rawScratch pools the workspaces of one raw hop: the preserialized request
// frame and the parsed response, whose body and headers stay valid until
// the scratch is recycled (copied before any longer-lived use, the cache
// fill).
type rawScratch struct {
	req  []byte
	resp httpraw.Response
}

var rawScratchPool = sync.Pool{New: func() any { return new(rawScratch) }}

func getRawScratch() *rawScratch { return rawScratchPool.Get().(*rawScratch) }

// putRawScratch recycles the scratch; one grown past 1 MiB is dropped so a
// single huge response cannot pin memory in the pool.
func putRawScratch(ps *rawScratch) {
	if cap(ps.req)+cap(ps.resp.Body) > 1<<20 {
		return
	}
	rawScratchPool.Put(ps)
}

// rawDialError wraps a fresh-dial failure — the only raw-hop error class
// that marks a backend unhealthy (the wire path's rule, applied here).
type rawDialError struct{ err error }

func (e *rawDialError) Error() string { return e.err.Error() }
func (e *rawDialError) Unwrap() error { return e.err }

// buildRawRequest serializes r (with the already-slurped body) into ps.req:
// the exact request net/http would have sent, minus per-request allocation.
// Hop-by-hop headers stay behind; Host and Content-Length are the hop's
// own. Expect stays behind too: the body is already fully buffered and
// written in the same frame, so a relayed 100-continue handshake buys
// nothing and provokes an interim response the relay has no use for.
func buildRawRequest(ps *rawScratch, r *http.Request, host string, body []byte) {
	b := append(ps.req[:0], r.Method...)
	b = append(b, ' ')
	b = append(b, r.URL.EscapedPath()...)
	if r.URL.RawQuery != "" {
		b = append(b, '?')
		b = append(b, r.URL.RawQuery...)
	}
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, '\r', '\n')
	for name, vals := range r.Header {
		if isHopHeader(name) || name == "Host" || name == "Content-Length" || name == "Expect" {
			continue
		}
		for _, v := range vals {
			b = append(b, name...)
			b = append(b, ':', ' ')
			b = append(b, v...)
			b = append(b, '\r', '\n')
		}
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	ps.req = append(b, body...)
}

// rawSend performs one proxied hop over a pooled raw connection. The
// request frame must already be built in ps. Stale pooled connections
// (write failure, or EOF before any response byte) close and retry on the
// next pooled or fresh connection; every other failure surfaces — wrapped
// in rawDialError when a fresh dial was what failed. The response is left
// in ps.resp.
func (rt *Router) rawSend(b *backend, r *http.Request, ps *rawScratch) error {
	deadline := time.Now().Add(rt.cfg.RequestTimeout)
	if d, ok := r.Context().Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for {
		hc, pooled, err := b.getHTTP(rt.cfg.DialTimeout)
		if err != nil {
			return &rawDialError{err}
		}
		hc.conn.SetDeadline(deadline) //nolint:errcheck
		if _, err := hc.conn.Write(ps.req); err != nil {
			hc.conn.Close()
			if pooled {
				continue
			}
			return err
		}
		began, err := ps.resp.Read(hc.br)
		if err != nil {
			hc.conn.Close()
			if pooled && !began {
				continue
			}
			return err
		}
		if ps.resp.Close {
			hc.conn.Close()
		} else {
			b.putHTTP(hc)
		}
		return nil
	}
}

// relayRaw writes a parsed raw-hop response to the client: the backend's
// relayable headers, the answering-backend tag, explicit Content-Length
// framing (a de-chunked body is the same bytes under settled framing).
func relayRaw(w http.ResponseWriter, res *httpraw.Response, addr string) {
	h := w.Header()
	res.AddHeaders(h)
	h.Set(fleetBackendHeader, addr)
	h.Set("Content-Length", strconv.Itoa(len(res.Body)))
	w.WriteHeader(res.Status)
	w.Write(res.Body) //nolint:errcheck // client gone; nothing left to do
}
