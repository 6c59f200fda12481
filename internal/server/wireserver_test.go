package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"sentinel/internal/wire"
)

// startWireServer runs s's wire handler on a loopback TCP listener and
// returns its address.
func startWireServer(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go s.ServeWire(l) //nolint:errcheck // returns when the listener closes
	return l.Addr().String()
}

func dialWire(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

type wireResult struct {
	status  int
	payload []byte
}

// readWireFrame consumes one response frame and returns its elements by tag.
func readWireFrame(t *testing.T, br *bufio.Reader) map[uint32]wireResult {
	t.Helper()
	count, err := wire.ReadResponseHeader(br, wire.Limits{})
	if err != nil {
		t.Fatalf("response header: %v", err)
	}
	out := make(map[uint32]wireResult, count)
	for i := 0; i < count; i++ {
		tag, status, plen, err := wire.ReadElemHeader(br, wire.Limits{})
		if err != nil {
			t.Fatalf("element %d header: %v", i, err)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			t.Fatalf("element %d payload: %v", i, err)
		}
		if _, dup := out[tag]; dup {
			t.Fatalf("tag %d emitted twice", tag)
		}
		out[tag] = wireResult{status: status, payload: payload}
	}
	return out
}

func sendWireFrame(t *testing.T, conn net.Conn, fr *wire.ReqFrame) {
	t.Helper()
	if _, err := conn.Write(wire.AppendRequest(nil, fr)); err != nil {
		t.Fatalf("write frame: %v", err)
	}
}

// TestWireRoundTrip: element payloads over the binary protocol are the
// single-request endpoints' response bytes, tags echoed as sent.
func TestWireRoundTrip(t *testing.T) {
	s := New(Config{})
	addr := startWireServer(t, s)
	_, single := newTestServer(t, Config{}) // independent server: no shared cache

	simBody := `{"workload":"cmp","model":"sentinel+stores","width":8}`
	schedBody := `{"workload":"wc","model":"sentinel","width":4}`

	conn := dialWire(t, addr)
	sendWireFrame(t, conn, &wire.ReqFrame{Elems: []wire.ReqElem{
		{Tag: 7, Op: wire.OpSimulate, Payload: []byte(simBody)},
		{Tag: 99, Op: wire.OpSchedule, Payload: []byte(schedBody)},
	}})
	got := readWireFrame(t, bufio.NewReader(conn))
	if len(got) != 2 {
		t.Fatalf("got %d elements, want 2", len(got))
	}

	wantSim := mustSingle(t, single.URL+"/v1/simulate", simBody)
	wantSched := mustSingle(t, single.URL+"/v1/schedule", schedBody)
	for _, tc := range []struct {
		tag  uint32
		want []byte
	}{{7, wantSim}, {99, wantSched}} {
		el, ok := got[tc.tag]
		if !ok {
			t.Fatalf("tag %d missing from response", tc.tag)
		}
		if el.status != http.StatusOK {
			t.Fatalf("tag %d: status %d\n%s", tc.tag, el.status, el.payload)
		}
		if string(el.payload) != string(tc.want) {
			t.Errorf("tag %d payload differs from single endpoint\nwire:   %s\nsingle: %s",
				tc.tag, el.payload, tc.want)
		}
	}
}

func mustSingle(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, out := postRawURL(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single endpoint %s: %d\n%s", url, resp.StatusCode, out)
	}
	return out
}

// TestWireKeepAlive: a connection carries many frames; the second round's
// repeated element comes back warm with identical bytes.
func TestWireKeepAlive(t *testing.T) {
	s := New(Config{RespCacheEntries: 64})
	addr := startWireServer(t, s)
	conn := dialWire(t, addr)
	br := bufio.NewReader(conn)

	body := `{"workload":"cmp","model":"sentinel","width":8}`
	var first []byte
	for round := 0; round < 3; round++ {
		sendWireFrame(t, conn, &wire.ReqFrame{Elems: []wire.ReqElem{
			{Tag: uint32(round), Op: wire.OpSimulate, Payload: []byte(body)},
		}})
		got := readWireFrame(t, br)
		el, ok := got[uint32(round)]
		if !ok || el.status != http.StatusOK {
			t.Fatalf("round %d: %+v", round, got)
		}
		if round == 0 {
			first = el.payload
		} else if string(el.payload) != string(first) {
			t.Fatalf("round %d bytes differ from round 0", round)
		}
	}
	if s.resp.Len() == 0 {
		t.Fatal("response cache untouched after repeated frames")
	}
}

// TestWireElementErrorsAreTagged: a failing element is a tagged structured
// error inside a successful frame, byte-identical to the single endpoint's
// envelope; its siblings are unaffected.
func TestWireElementErrorsAreTagged(t *testing.T) {
	s := New(Config{})
	addr := startWireServer(t, s)
	_, single := newTestServer(t, Config{})

	badBody := `{"workload":"no-such-kernel"}`
	goodBody := `{"workload":"wc","model":"sentinel","width":8}`
	conn := dialWire(t, addr)
	sendWireFrame(t, conn, &wire.ReqFrame{Elems: []wire.ReqElem{
		{Tag: 0, Op: wire.OpSimulate, Payload: []byte(badBody)},
		{Tag: 1, Op: wire.OpSimulate, Payload: []byte(goodBody)},
	}})
	got := readWireFrame(t, bufio.NewReader(conn))

	resp, want := postRawURL(t, single.URL+"/v1/simulate", badBody)
	if el := got[0]; el.status != resp.StatusCode || string(el.payload) != string(want) {
		t.Errorf("bad element: status %d (want %d)\nwire:   %s\nsingle: %s",
			el.status, resp.StatusCode, el.payload, want)
	}
	if el := got[1]; el.status != http.StatusOK {
		t.Errorf("good sibling caught the error: %d\n%s", el.status, el.payload)
	}
}

// TestWireUnknownRegisterIsAssemblyError: inline source naming registers
// no machine has (virtualSource) fails each wire element with the single
// endpoints' 422 assembly_error.
func TestWireUnknownRegisterIsAssemblyError(t *testing.T) {
	addr := startWireServer(t, New(Config{Workers: 1, RequestTimeout: 2 * time.Second}))
	req, err := json.Marshal(map[string]any{"source": virtualSource, "model": "sentinel"})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialWire(t, addr)
	sendWireFrame(t, conn, &wire.ReqFrame{Elems: []wire.ReqElem{
		{Tag: 0, Op: wire.OpSchedule, Payload: req},
		{Tag: 1, Op: wire.OpSimulate, Payload: req},
	}})
	for tag, el := range readWireFrame(t, bufio.NewReader(conn)) {
		checkAssemblyError(t, fmt.Sprintf("wire element %d", tag), el.status, el.payload)
	}
}

// TestWireMalformedFrame: garbage framing gets an error frame, then the
// connection closes — resynchronization is impossible.
func TestWireMalformedFrame(t *testing.T) {
	s := New(Config{})
	addr := startWireServer(t, s)
	conn := dialWire(t, addr)

	if _, err := conn.Write([]byte{wire.MagicByte0, 'S', 'B', 'W', 0xEE, wire.KindRequest}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	_, err := wire.ReadResponseHeader(br, wire.Limits{})
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || pe.Code != wire.ErrMalformed {
		t.Fatalf("want ErrMalformed error frame, got %v", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection should be closed after a malformed frame, read gave %v", err)
	}
}

// TestWireDrainingClosesConn: a draining server answers with an ErrDraining
// frame and closes the connection.
func TestWireDrainingClosesConn(t *testing.T) {
	s := New(Config{})
	addr := startWireServer(t, s)
	s.adm.startDrain()

	conn := dialWire(t, addr)
	sendWireFrame(t, conn, &wire.ReqFrame{Elems: []wire.ReqElem{
		{Tag: 0, Op: wire.OpSimulate, Payload: []byte(`{"workload":"cmp"}`)},
	}})
	br := bufio.NewReader(conn)
	_, err := wire.ReadResponseHeader(br, wire.Limits{})
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || pe.Code != wire.ErrDraining {
		t.Fatalf("want ErrDraining error frame, got %v", err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection should be closed after draining refusal, read gave %v", err)
	}
}

// TestWireOverloadKeepsConn: an overload refusal is retryable on the same
// connection.
func TestWireOverloadKeepsConn(t *testing.T) {
	s := New(Config{MaxInFlight: 1, MaxQueue: -1})
	addr := startWireServer(t, s)

	// Hold the only slot so the frame is refused at admission.
	release, err := s.adm.acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}

	conn := dialWire(t, addr)
	br := bufio.NewReader(conn)
	body := `{"workload":"cmp","model":"sentinel","width":8}`
	fr := &wire.ReqFrame{Elems: []wire.ReqElem{
		{Tag: 5, Op: wire.OpSimulate, Payload: []byte(body)},
	}}
	sendWireFrame(t, conn, fr)
	_, err = wire.ReadResponseHeader(br, wire.Limits{})
	var pe *wire.ProtocolError
	if !errors.As(err, &pe) || pe.Code != wire.ErrOverload {
		t.Fatalf("want ErrOverload error frame, got %v", err)
	}

	// Same connection, slot freed: the retry succeeds.
	release()
	sendWireFrame(t, conn, fr)
	got := readWireFrame(t, br)
	if el := got[5]; el.status != http.StatusOK {
		t.Fatalf("retry after overload on same conn: %+v", got)
	}
}

// TestWireSniffing: one listener serves both protocols — HTTP requests reach
// the mux, magic-prefixed connections reach the wire handler — and the
// response cache is shared between them.
func TestWireSniffing(t *testing.T) {
	s := New(Config{RespCacheEntries: 64})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpLn := s.SniffWire(l)
	t.Cleanup(func() { httpLn.Close() })
	go http.Serve(httpLn, s.Handler()) //nolint:errcheck // exits when the listener closes
	addr := l.Addr().String()

	// HTTP on the shared port.
	body := `{"workload":"cmp","model":"sentinel","width":8}`
	resp, want := postRawURL(t, "http://"+addr+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP over sniffed listener: %d\n%s", resp.StatusCode, want)
	}

	// Wire on the same port; the element repeats the HTTP request's bytes and
	// must come back warm from the shared cache.
	conn := dialWire(t, addr)
	sendWireFrame(t, conn, &wire.ReqFrame{Elems: []wire.ReqElem{
		{Tag: 3, Op: wire.OpSimulate, Payload: []byte(body)},
	}})
	got := readWireFrame(t, bufio.NewReader(conn))
	el, ok := got[3]
	if !ok || el.status != http.StatusOK {
		t.Fatalf("wire over sniffed listener: %+v", got)
	}
	if string(el.payload) != string(want) {
		t.Errorf("wire payload differs from the HTTP response it should share\nwire: %s\nhttp: %s",
			el.payload, want)
	}
}

// TestWireFrameTimeout: a frame deadline too short for its elements still
// answers every element — late ones carry the structured timeout envelope.
func TestWireFrameTimeout(t *testing.T) {
	s := New(Config{})
	addr := startWireServer(t, s)
	conn := dialWire(t, addr)

	const n = 48
	elems := make([]wire.ReqElem, n)
	for i := range elems {
		elems[i] = wire.ReqElem{Tag: uint32(i), Op: wire.OpSimulate, Payload: []byte(fmt.Sprintf(
			`{"workload":%q,"model":"sentinel","width":%d,"full":true}`,
			[]string{"cmp", "wc", "eqntott", "grep"}[i%4], 2<<(i%3)))}
	}
	sendWireFrame(t, conn, &wire.ReqFrame{TimeoutMS: 1, Elems: elems})
	got := readWireFrame(t, bufio.NewReader(conn))
	if len(got) != n {
		t.Fatalf("got %d elements, want all %d even under the deadline", len(got), n)
	}
	timedOut := 0
	for tag, el := range got {
		switch el.status {
		case http.StatusOK:
		case http.StatusGatewayTimeout:
			timedOut++
			if ae := decodeError(t, el.payload); ae.Kind != KindTimeout {
				t.Fatalf("tag %d: late element kind %q, want %q", tag, ae.Kind, KindTimeout)
			}
		default:
			t.Fatalf("tag %d: unexpected status %d\n%s", tag, el.status, el.payload)
		}
	}
	if timedOut == 0 {
		t.Skip("all 48 full simulations beat the 1ms frame deadline")
	}
}
