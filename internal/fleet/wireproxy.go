package fleet

// The wire-protocol side of the router. A batch frame is the one place the
// router splits a request: each element fingerprints independently, so one
// frame's elements fan out to the backends that own them and results stream
// back to the client in fleet-wide completion order — the protocol's tag
// field exists precisely so order can float free of submission. Tags pass
// through unchanged; each backend echoes the client's own tags, and the
// router interleaves whatever arrives first.
//
// Element payloads and response envelopes are relayed byte-for-byte, same
// as the HTTP path. When the router must answer for an unreachable or
// refusing backend it synthesizes per-element envelopes with the backend
// vocabulary (unavailable/draining/overload/timeout), so a wire client's
// retry logic never learns whether a refusal came from a backend or the
// router in front of it. Overload is never retried — rerouting a refused
// element onto a sibling under fleet-wide load would amplify exactly the
// pressure admission control exists to shed.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"sentinel/internal/obs"
	"sentinel/internal/wire"
)

// opScheduleByte lets the route-key switch compare against the wire opcode
// without a widening conversion at every element.
const opScheduleByte = byte(wire.OpSchedule)

// wireLimits bounds decoded frames on both hops; the zero value selects the
// protocol defaults (1024 elements, 4 MiB payloads), matching the backends.
var wireLimits = wire.Limits{}

// serveWire terminates one sniffed wire connection: a loop of request
// frames, each fanned out and streamed back. The handler owns conn.
func (rt *Router) serveWire(br *bufio.Reader, conn net.Conn) {
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, wire.SniffBufSize)
	for {
		fr, err := wire.ReadRequest(br, wireLimits)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				var pe *wire.ProtocolError
				if errors.As(err, &pe) {
					bw.Write(wire.AppendError(nil, pe.Code, pe.Msg)) //nolint:errcheck
					bw.Flush()                                       //nolint:errcheck
				}
			}
			return
		}
		if !rt.serveWireFrame(bw, fr) {
			bw.Flush() //nolint:errcheck
			return
		}
		if bw.Flush() != nil {
			return
		}
	}
}

// serveWireFrame routes one frame's elements, fans the groups out to their
// backends concurrently, and streams results back as they complete. Returns
// false when the connection must close (draining refusal).
func (rt *Router) serveWireFrame(bw *bufio.Writer, fr *wire.ReqFrame) bool {
	if rt.draining.Load() {
		bw.Write(wire.AppendError(nil, wire.ErrDraining, "server is draining")) //nolint:errcheck
		return false
	}
	rt.inflight.Add(1)
	defer rt.inflight.Add(-1)
	rt.wireFrames.Inc()
	rt.wireElems.Add(int64(len(fr.Elems)))

	rd := rt.rec.Begin("/wire/batch")
	defer rd.Finish(http.StatusOK)

	// Group elements by routed backend. Map iteration order below is
	// irrelevant — completion order is the contract, not submission order.
	rd.Start(obs.StageRoute, obs.ArgNone)
	groups := make(map[int][]wire.ReqElem)
	spilledAny := false
	for i, e := range fr.Elems {
		k := wireRouteKey(e.Op, e.Payload)
		if i == 0 {
			rd.SetFingerprint(k[:8])
		}
		idx, spilled := rt.route(k)
		if idx >= 0 {
			rt.countRoute(idx, spilled)
		}
		if spilled {
			spilledAny = true
		}
		groups[idx] = append(groups[idx], e)
	}
	rd.End()
	arg := obs.ArgHashed
	if spilledAny {
		arg = obs.ArgSpilled
	}

	// The response header commits to the element count up front; every
	// element is then answered exactly once — by a backend or by synthesis.
	bw.Write(wire.AppendResponseHeader(nil, len(fr.Elems))) //nolint:errcheck

	rd.Start(obs.StageProxy, arg)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for idx, elems := range groups {
		if idx < 0 {
			rt.proxyErrs.Inc()
			rt.synthAll(&mu, bw, elems, http.StatusServiceUnavailable,
				"unavailable", "fleet: no ready backend")
			continue
		}
		wg.Add(1)
		go func(idx int, elems []wire.ReqElem) {
			defer wg.Done()
			rt.wireExchange(&mu, bw, idx, fr.TimeoutMS, elems)
		}(idx, elems)
	}
	wg.Wait()
	rd.End()
	return true
}

// wireExchange delivers one backend's element group, retrying unanswered
// elements once on a sibling when the backend fails or drains mid-exchange.
func (rt *Router) wireExchange(mu *sync.Mutex, bw *bufio.Writer, idx int, timeoutMS uint32, elems []wire.ReqElem) {
	mayRetry := true
	for {
		b := rt.backends[idx]
		b.inflight.Add(1)
		pending, retriable, err := rt.wireAttempt(mu, bw, b, timeoutMS, elems)
		b.inflight.Add(-1)
		if err == nil {
			return
		}
		if retriable && mayRetry {
			mayRetry = false
			if next := rt.pickAny(idx); next >= 0 {
				rt.retries.Inc()
				idx, elems = next, pending
				continue
			}
		}
		rt.proxyErrs.Inc()
		var pe *wire.ProtocolError
		if errors.As(err, &pe) {
			rt.synthRefusal(mu, bw, pending, pe)
		} else {
			rt.synthAll(mu, bw, pending, http.StatusServiceUnavailable,
				"unavailable", "fleet: backend "+b.addr+" unreachable")
		}
		return
	}
}

// pickAny returns the next round-robin eligible backend excluding skip, or
// -1 when none is. The wire retry target: any backend can serve any
// element, so unlike the spill pick a lone survivor is acceptable.
func (rt *Router) pickAny(skip int) int {
	n := len(rt.backends)
	start := int(rt.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		j := (start + i) % n
		if j != skip && rt.eligible(j) {
			return j
		}
	}
	return -1
}

// exchangeTimeout bounds one backend exchange: the router's ceiling, or the
// client's batch deadline when tighter.
func (rt *Router) exchangeTimeout(timeoutMS uint32) time.Duration {
	d := rt.cfg.RequestTimeout
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}

// wireAttempt runs one exchange against b. On failure it returns the
// elements the client has not yet received an answer for, plus whether a
// sibling retry is safe. A stale pooled connection (closed by the backend
// under the pool's feet) redials transparently as long as nothing has been
// streamed yet.
func (rt *Router) wireAttempt(mu *sync.Mutex, bw *bufio.Writer, b *backend, timeoutMS uint32, elems []wire.ReqElem) (pending []wire.ReqElem, retriable bool, err error) {
	for {
		deadline := time.Now().Add(rt.exchangeTimeout(timeoutMS))
		wc, pooled, err := b.get(b.wirePool, wire.SniffBufSize, deadline)
		if err != nil {
			rt.noteDialFailure(b)
			return elems, true, err
		}
		wc.conn.SetDeadline(deadline) //nolint:errcheck
		frame := wire.AppendRequest(nil, &wire.ReqFrame{TimeoutMS: timeoutMS, Elems: elems})
		if _, werr := wc.conn.Write(frame); werr != nil {
			wc.conn.Close()
			if pooled {
				continue
			}
			return elems, true, werr
		}
		count, herr := wire.ReadResponseHeader(wc.br, wireLimits)
		if herr != nil {
			wc.conn.Close()
			var pe *wire.ProtocolError
			if errors.As(herr, &pe) {
				if pe.Code == wire.ErrDraining {
					// The drain-aware removal's reactive edge: the probe
					// window has not elapsed yet, but the backend told us.
					if !b.draining.Swap(true) {
						rt.logf("fleet: backend %s draining; rerouting new keys", b.addr)
					}
					return elems, true, herr
				}
				// Overload, timeout, malformed: the backend answered; the
				// refusal is synthesized per element, never retried.
				return elems, false, herr
			}
			if pooled {
				continue
			}
			return elems, true, herr
		}
		if count != len(elems) {
			wc.conn.Close()
			return elems, true, fmt.Errorf("fleet: backend %s answered %d of %d elements", b.addr, count, len(elems))
		}
		return rt.wireStream(mu, bw, b, wc, elems)
	}
}

// wireStream relays one exchange's response elements to the client as they
// arrive, matching them off against the outstanding tag multiset. On a
// mid-stream failure the unanswered elements come back as pending.
func (rt *Router) wireStream(mu *sync.Mutex, bw *bufio.Writer, b *backend, wc *wireConn, elems []wire.ReqElem) (pending []wire.ReqElem, retriable bool, err error) {
	// Tag → pending element indices. The protocol does not require unique
	// tags within a frame; duplicates pop in order (their payloads may
	// differ, but the client chose to make their answers indistinguishable).
	pend := make(map[uint32][]int, len(elems))
	for i, e := range elems {
		pend[e.Tag] = append(pend[e.Tag], i)
	}
	remaining := len(elems)
	var hdr, payload []byte
	for remaining > 0 {
		tag, status, plen, rerr := wire.ReadElemHeader(wc.br, wireLimits)
		if rerr != nil {
			err = rerr
			break
		}
		q := pend[tag]
		if len(q) == 0 {
			err = fmt.Errorf("fleet: backend %s echoed unexpected tag %d", b.addr, tag)
			break
		}
		pend[tag] = q[1:]
		remaining--
		if cap(payload) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, rerr := io.ReadFull(wc.br, payload); rerr != nil {
			err = rerr
			break
		}
		hdr = wire.AppendElemHeader(hdr[:0], tag, status, plen)
		mu.Lock()
		bw.Write(hdr)     //nolint:errcheck
		bw.Write(payload) //nolint:errcheck
		ferr := bw.Flush()
		mu.Unlock()
		if ferr != nil {
			// The client went away; nothing left to answer for.
			wc.conn.Close()
			return nil, false, nil
		}
	}
	if err != nil {
		wc.conn.Close()
		for _, idxs := range pend {
			for _, i := range idxs {
				pending = append(pending, elems[i])
			}
		}
		return pending, true, err
	}
	put(b.wirePool, wc)
	return nil, false, nil
}

// synthRefusal maps a backend's error frame onto per-element envelopes with
// the matching HTTP vocabulary, so framed and unframed clients see the same
// refusal shape.
func (rt *Router) synthRefusal(mu *sync.Mutex, bw *bufio.Writer, elems []wire.ReqElem, pe *wire.ProtocolError) {
	status, kind := http.StatusInternalServerError, "internal"
	switch pe.Code {
	case wire.ErrOverload:
		status, kind = http.StatusTooManyRequests, "overload"
	case wire.ErrDraining:
		status, kind = http.StatusServiceUnavailable, "draining"
	case wire.ErrTimeout:
		status, kind = http.StatusGatewayTimeout, "timeout"
	}
	rt.synthAll(mu, bw, elems, status, kind, pe.Msg)
}

// synthAll answers every element in elems with one synthesized envelope.
func (rt *Router) synthAll(mu *sync.Mutex, bw *bufio.Writer, elems []wire.ReqElem, status int, kind, msg string) {
	body := envelopeBody(kind, msg)
	var hdr []byte
	mu.Lock()
	defer mu.Unlock()
	for _, e := range elems {
		hdr = wire.AppendElemHeader(hdr[:0], e.Tag, status, len(body))
		bw.Write(hdr)  //nolint:errcheck
		bw.Write(body) //nolint:errcheck
	}
	bw.Flush() //nolint:errcheck
}
