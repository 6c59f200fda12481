package fleet

// The router→backend HTTP hop: every proxied request and every /readyz
// probe, one raw HTTP/1.1 exchange over the backend's keep-alive pool,
// built like sentinelload's closed-loop client instead of net/http. An
// exchange serializes the request frame into pooled scratch (request line,
// relayed headers, explicit framing, body — one conn.Write), then parses
// the response head in place off the pooled connection's buffered reader
// with httpraw.
//
// The body is taken one of two ways. A 200 with a chunked body from
// /v1/batch or an unknown path is relayed to the client chunk by chunk as
// it arrives. Every other response — every answer from the deterministic
// endpoints, whatever its framing — is read whole before anything reaches
// the client, which keeps the retry simple: a draining refusal or a
// transport error can still reroute, and a cacheable 200 can fill the
// front cache.
//
// A frame too large to trust to the socket buffers is written on its own
// goroutine while the response is read, since a backend may answer — a
// 404, a too-large refusal — before it has read the body; an over-limit
// body, which the router never held whole, goes that way as a chunked
// request on a fresh connection and is never retried.
//
// Connection discipline mirrors the wire proxy's: a failure on a pooled
// connection before any response byte arrives is a stale keep-alive and
// redials transparently, and only a *fresh* dial failure (rawDialError)
// flips the backend's reactive unhealthy edge. Each exchange runs under
// one deadline, the earlier of RequestTimeout and the inbound request's
// own; when the inbound context ends, the connection is closed and the
// exchange fails — a failure the proxy neither retries nor holds against
// the backend.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sentinel/internal/httpraw"
)

// rawScratch pools the workspaces of one exchange: the preserialized
// request frame and the parsed response, whose body and headers stay valid
// until the scratch is recycled (copied before any longer-lived use, the
// cache fill).
type rawScratch struct {
	req  []byte
	resp httpraw.Response
	head bool // the frame is a HEAD request: the response has no body

	// stop ends the exchange's watch on a cancellable inbound context.
	stop func() bool
	// stopBody, when set, ends a frame writer's pending read of the
	// client's over-limit body.
	stopBody func()
	// The frame writer of an exchange too large to write inline: writing
	// is set while it runs, and it reports its error on wrote.
	writing bool
	wrote   chan error
}

var rawScratchPool = sync.Pool{New: func() any { return new(rawScratch) }}

func getRawScratch() *rawScratch { return rawScratchPool.Get().(*rawScratch) }

// putRawScratch recycles the scratch; one grown past 1 MiB is dropped so a
// single huge request or response cannot pin memory in the pool.
func putRawScratch(ps *rawScratch) {
	if cap(ps.req)+cap(ps.resp.Body) > 1<<20 {
		return
	}
	ps.stopBody = nil
	rawScratchPool.Put(ps)
}

// inlineFrameBytes bounds a frame written before the response is read; a
// larger one is written on its own goroutine. Far below any socket buffer,
// so an inline write completes even when the backend answers unread.
const inlineFrameBytes = 64 << 10

// rawDialError wraps a fresh-dial failure — the only hop error class that
// marks a backend unhealthy (the wire path's rule, applied here).
type rawDialError struct{ err error }

func (e *rawDialError) Error() string { return e.err.Error() }
func (e *rawDialError) Unwrap() error { return e.err }

// buildRawRequest serializes r (with the already-slurped body) into ps.req:
// the exact request net/http would have sent, minus per-request allocation.
// Hop-by-hop headers stay behind; Host and the framing are the hop's own.
// Expect stays behind too: the body is already buffered and written with
// the headers, so a relayed 100-continue handshake buys nothing and
// provokes an interim response the relay has no use for. A chunked frame
// carries body as its first chunk; the frame writer streams the rest of an
// over-limit body after it.
func buildRawRequest(ps *rawScratch, r *http.Request, host string, body []byte, chunked bool) {
	ps.head = r.Method == http.MethodHead
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
		if httpraw.IsHopHeader(name) || name == "Host" || name == "Content-Length" || name == "Expect" {
			continue
		}
		for _, v := range vals {
			b = append(b, name...)
			b = append(b, ':', ' ')
			b = append(b, v...)
			b = append(b, '\r', '\n')
		}
	}
	if chunked {
		b = append(b, "Transfer-Encoding: chunked\r\n\r\n"...)
		b = strconv.AppendInt(b, int64(len(body)), 16)
		b = append(b, '\r', '\n')
		b = append(b, body...)
		ps.req = append(b, '\r', '\n')
		return
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	ps.req = append(b, body...)
}

// exchange sends the frame in ps.req to b — followed by the rest of an
// over-limit body when overflow is set — and reads the answer. When w is
// non-nil, a 200 with a chunked body streams to w as it arrives, and
// streamed reports that the client has the response head; err then
// reports a stream cut short. Any other answer is read whole into
// ps.resp, with nothing written to w.
func (b *backend) exchange(ctx context.Context, w http.ResponseWriter, ps *rawScratch, deadline time.Time,
	overflow io.Reader) (streamed bool, err error) {
	hc, err := b.roundTrip(ctx, ps, deadline, overflow)
	if err != nil {
		return false, err
	}
	res := &ps.resp
	switch {
	case ps.head:
	case w != nil && res.Status == http.StatusOK && res.Chunked():
		err = relayChunks(w, res, hc.br, b.addr)
		b.finish(hc, ps, err == nil)
		return true, err
	default:
		err = res.ReadBody(hc.br)
	}
	b.finish(hc, ps, err == nil)
	return false, err
}

// roundTrip sends the frame on a pooled or fresh connection and reads the
// response head into ps.resp, returning the connection with the body
// still on it. A pooled connection that fails before any response byte
// arrives was a stale keep-alive: it is closed and the frame resent on the
// next one. A fresh dial failure comes back as a rawDialError. Until
// finish, an ended ctx closes the connection.
func (b *backend) roundTrip(ctx context.Context, ps *rawScratch, deadline time.Time, overflow io.Reader) (*wireConn, error) {
	pool := b.httpPool
	if overflow != nil {
		pool = nil // an over-limit body cannot be resent: dial fresh, never stale
	}
	for {
		hc, pooled, err := b.get(pool, 8<<10, deadline)
		if err != nil {
			return nil, &rawDialError{err}
		}
		hc.conn.SetDeadline(deadline) //nolint:errcheck
		if ctx.Done() != nil {
			ps.stop = context.AfterFunc(ctx, func() { hc.conn.Close() })
		}
		if overflow != nil || len(ps.req) > inlineFrameBytes {
			if ps.wrote == nil {
				ps.wrote = make(chan error, 1)
			}
			ps.writing = true
			go func() { ps.wrote <- writeFrame(hc.conn, ps.req, overflow) }()
		} else if _, err := hc.conn.Write(ps.req); err != nil {
			b.finish(hc, ps, false)
			if pooled && ctx.Err() == nil {
				continue
			}
			return nil, err
		}
		began, err := ps.resp.ReadHead(hc.br)
		if err != nil {
			b.finish(hc, ps, false)
			if pooled && !began && ctx.Err() == nil {
				continue
			}
			return nil, err
		}
		return hc, nil
	}
}

// writeFrame writes a frame, then the rest of an over-limit body as chunks
// and the last chunk.
func writeFrame(conn net.Conn, frame []byte, overflow io.Reader) error {
	if _, err := conn.Write(frame); err != nil || overflow == nil {
		return err
	}
	buf := make([]byte, 32<<10)
	var size [16]byte
	for {
		n, err := overflow.Read(buf)
		if n > 0 {
			line := append(strconv.AppendInt(size[:0], int64(n), 16), '\r', '\n')
			chunk := net.Buffers{line, buf[:n], []byte("\r\n")}
			if _, werr := chunk.WriteTo(conn); werr != nil {
				return werr
			}
		}
		if err == io.EOF {
			_, err = conn.Write([]byte("0\r\n\r\n"))
			return err
		}
		if err != nil {
			return err
		}
	}
}

// finish ends an exchange on hc. It stops the context watch and collects a
// frame writer, closing the connection and ending any read of the client's
// body first when the writer is still blocked. The connection returns to the pool only when reuse
// holds, the watch never fired, any writer completed cleanly and the
// response lets the connection carry another exchange; otherwise it is
// closed.
func (b *backend) finish(hc *wireConn, ps *rawScratch, reuse bool) {
	if ps.stop != nil && !ps.stop() {
		reuse = false // the watch fired: the connection is closed
	}
	ps.stop = nil
	if ps.writing {
		ps.writing = false
		select {
		case err := <-ps.wrote:
			reuse = reuse && err == nil
		default:
			hc.conn.Close()
			if ps.stopBody != nil {
				ps.stopBody()
			}
			<-ps.wrote
			reuse = false
		}
	}
	if reuse && !ps.resp.Close {
		put(b.httpPool, hc)
	} else {
		hc.conn.Close()
	}
}

// errClientWrite is relayChunks' failure to write to the client, as
// opposed to a failure reading the backend's stream.
var errClientWrite = errors.New("fleet: writing the stream to the client failed")

// relayChunks streams a chunked 200 to the client one chunk at a time:
// the backend's relayable headers and the answering-backend tag, then each
// chunk as it arrives, flushed whenever the backend has sent nothing
// further yet, so a /v1/batch element reaches the client as soon as the
// backend flushes it.
func relayChunks(w http.ResponseWriter, res *httpraw.Response, br *bufio.Reader, addr string) error {
	h := w.Header()
	res.AddHeaders(h)
	h.Set(fleetBackendHeader, addr)
	w.WriteHeader(res.Status)
	flusher, _ := w.(http.Flusher)
	for {
		last, err := res.NextChunk(br)
		if err != nil {
			return err
		}
		if _, err := w.Write(res.Body); err != nil {
			return errClientWrite
		}
		if last {
			return nil
		}
		if flusher != nil && br.Buffered() == 0 {
			flusher.Flush()
		}
	}
}

// relayRaw writes a buffered response to the client: the backend's
// relayable headers, the answering-backend tag, explicit Content-Length
// framing (a de-chunked body is the same bytes under settled framing). A
// HEAD answer has no body; it relays the length the backend declared, if
// any.
func relayRaw(w http.ResponseWriter, ps *rawScratch, addr string) {
	res := &ps.resp
	h := w.Header()
	res.AddHeaders(h)
	h.Set(fleetBackendHeader, addr)
	n := len(res.Body)
	if ps.head {
		n = res.ContentLength()
	}
	if n >= 0 {
		h.Set("Content-Length", strconv.Itoa(n))
	}
	w.WriteHeader(res.Status)
	w.Write(res.Body) //nolint:errcheck // client gone; nothing left to do
}
