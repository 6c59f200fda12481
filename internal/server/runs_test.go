package server

// Ready runs and contained panics: a batch's ready elements reach the
// socket in one write per run, never waiting on a cold sibling, and a
// panicking element or handler is answered with the 500 internal envelope
// while everything else keeps serving.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/obs"
	"sentinel/internal/wire"
	"sentinel/internal/workload"
)

// countListener counts the Write calls made on every connection it
// accepted: the write syscalls the server spends on its answers.
type countListener struct {
	net.Listener
	writes atomic.Int64
}

type countConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{c, &l.writes}, nil
}

// startCountedServer serves s over HTTP and the sniffed wire protocol on
// one counted loopback listener.
func startCountedServer(t *testing.T, s *Server) (string, *countListener) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countListener{Listener: l}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(s.SniffWire(cl)) //nolint:errcheck // returns at Close
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), cl
}

// warmCells are 16 distinct simulate requests, about 1 KiB of answer each.
func warmCells() []string {
	all := workload.All()
	cells := make([]string, 16)
	for i := range cells {
		cells[i] = fmt.Sprintf(`{"workload":%q,"model":"sentinel","width":%d}`,
			all[i%len(all)].Name, 2<<(i/len(all)))
	}
	return cells
}

// maxWarmWrites bounds the writes of a 16-element all-warm answer. Flushed
// element by element it takes at least 16.
const maxWarmWrites = 4

// TestBatchWarmWrites: a 16-element all-warm /v1/batch is answered in a
// handful of writes, not one or more per element.
func TestBatchWarmWrites(t *testing.T) {
	s := New(Config{Workers: 1})
	addr, cl := startCountedServer(t, s)
	var items []testBatchItem
	for _, c := range warmCells() {
		items = append(items, testBatchItem{Request: json.RawMessage(c)})
	}
	postBatch(t, "http://"+addr, items) // fill the response cache
	before := cl.writes.Load()
	resp, out := postBatch(t, "http://"+addr, items)
	writes := cl.writes.Load() - before
	if resp.StatusCode != http.StatusOK || len(parseBatchStream(t, out)) != len(items) {
		t.Fatalf("warm batch: %d, %d bytes", resp.StatusCode, len(out))
	}
	t.Logf("16-element warm /v1/batch: %d writes", writes)
	if writes > maxWarmWrites {
		t.Errorf("16-element warm /v1/batch took %d writes, want at most %d", writes, maxWarmWrites)
	}
}

// TestWireWarmWrites: the same for a wire frame.
func TestWireWarmWrites(t *testing.T) {
	s := New(Config{Workers: 1})
	addr, cl := startCountedServer(t, s)
	var elems []wire.ReqElem
	for i, c := range warmCells() {
		elems = append(elems, wire.ReqElem{Tag: uint32(i), Op: wire.OpSimulate, Payload: []byte(c)})
	}
	conn := dialWire(t, addr)
	br := bufio.NewReader(conn)
	sendWireFrame(t, conn, &wire.ReqFrame{Elems: elems})
	readWireFrame(t, br)
	before := cl.writes.Load()
	sendWireFrame(t, conn, &wire.ReqFrame{Elems: elems})
	got := readWireFrame(t, br)
	writes := cl.writes.Load() - before
	if len(got) != len(elems) {
		t.Fatalf("warm frame answered %d of %d elements", len(got), len(elems))
	}
	t.Logf("16-element warm wire frame: %d writes", writes)
	if writes > maxWarmWrites {
		t.Errorf("16-element warm wire frame took %d writes, want at most %d", writes, maxWarmWrites)
	}
}

// schedSource is a small inline program; each test makes its source
// distinct with a comment, so the compile hook can pick it out.
func schedSource(tag string) string {
	return fmt.Sprintf("; %s\nentry:\n    li   r1, 4096\n    li   r2, 7\n    add  r3, r1, r2\n    jsr  putint, r3\n    halt\n", tag)
}

func schedBody(src string) []byte {
	b, _ := json.Marshal(map[string]any{"source": src, "model": "sentinel", "width": 4})
	return b
}

// holdSource makes the compile of src wait until release is closed (or a
// few seconds pass), and reports whether release came first.
func holdSource(t *testing.T, src string, release <-chan struct{}) *atomic.Bool {
	t.Helper()
	var released atomic.Bool
	restore := SetCompileHook(func(ctx context.Context, s string) error {
		if s != src {
			return nil
		}
		select {
		case <-release:
			released.Store(true)
		case <-time.After(3 * time.Second):
		}
		return nil
	})
	t.Cleanup(restore)
	return &released
}

// TestBatchWarmElementNotHeldByCold: a warm element reaches the client
// while a cold sibling is still compiling, over both entry points. The
// hook holds the cold element until the client has read the warm one.
func TestBatchWarmElementNotHeldByCold(t *testing.T) {
	s := New(Config{Workers: 1})
	addr, _ := startCountedServer(t, s)
	warm := warmCells()[0]
	mustSingle(t, "http://"+addr+"/v1/simulate", warm)

	t.Run("http", func(t *testing.T) {
		src := schedSource("held behind a warm element, http")
		readWarm := make(chan struct{})
		released := holdSource(t, src, readWarm)
		body, _ := json.Marshal([]testBatchItem{
			{Request: json.RawMessage(warm)},
			{Op: "schedule", Request: schedBody(src)},
		})
		resp, err := http.Post("http://"+addr+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, `{"index":0,"status":200,`) {
			t.Fatalf("first element header %q: %v", line, err)
		}
		close(readWarm)
		if _, err := io.ReadAll(br); err != nil {
			t.Fatal(err)
		}
		if !released.Load() {
			t.Fatal("the warm element reached the client only after the cold one stopped waiting")
		}
	})

	t.Run("wire", func(t *testing.T) {
		src := schedSource("held behind a warm element, wire")
		readWarm := make(chan struct{})
		released := holdSource(t, src, readWarm)
		conn := dialWire(t, addr)
		sendWireFrame(t, conn, &wire.ReqFrame{Elems: []wire.ReqElem{
			{Tag: 7, Op: wire.OpSimulate, Payload: []byte(warm)},
			{Tag: 8, Op: wire.OpSchedule, Payload: schedBody(src)},
		}})
		br := bufio.NewReader(conn)
		if _, err := wire.ReadResponseHeader(br, wire.Limits{}); err != nil {
			t.Fatal(err)
		}
		tag, status, plen, err := wire.ReadElemHeader(br, wire.Limits{})
		if err != nil || tag != 7 || status != http.StatusOK {
			t.Fatalf("first element tag %d status %d: %v", tag, status, err)
		}
		if _, err := io.ReadFull(br, make([]byte, plen)); err != nil {
			t.Fatal(err)
		}
		close(readWarm)
		if _, _, _, err := wire.ReadElemHeader(br, wire.Limits{}); err != nil {
			t.Fatal(err)
		}
		if !released.Load() {
			t.Fatal("the warm element reached the client only after the cold one stopped waiting")
		}
	})
}

// panicSource makes the compile of src panic inside the source cache's
// singleflight.
func panicSource(t *testing.T, src string) (restore func()) {
	t.Helper()
	restore = SetCompileHook(func(_ context.Context, s string) error {
		if s == src {
			panic("compile exploded")
		}
		return nil
	})
	t.Cleanup(restore)
	return restore
}

// checkPanicked asserts an answer is the 500 internal envelope.
func checkPanicked(t *testing.T, what string, status int, body []byte) {
	t.Helper()
	if status != http.StatusInternalServerError {
		t.Fatalf("%s: status %d, want 500: %s", what, status, body)
	}
	if ae := decodeError(t, body); ae.Kind != KindInternal {
		t.Fatalf("%s: kind %q, want %q", what, ae.Kind, KindInternal)
	}
}

// panicServer is a server with metrics and a recorder, for the panic tests.
func panicServer(t *testing.T) (*Server, *obs.Registry, string) {
	t.Helper()
	reg := obs.NewRegistry()
	s := New(Config{Workers: 2, Registry: reg, Recorder: obs.NewRecorder(obs.RecorderConfig{})})
	addr, _ := startCountedServer(t, s)
	return s, reg, addr
}

// checkAfterPanic asserts the server counted one panic, is still ready,
// retained an error record for endpoint, and compiles src afresh once the
// hook is gone.
func checkAfterPanic(t *testing.T, s *Server, reg *obs.Registry, addr, endpoint, src string, restore func()) {
	t.Helper()
	if got := reg.Counter("server.panics").Value(); got != 1 {
		t.Errorf("server.panics = %d, want 1", got)
	}
	if resp, err := http.Get("http://" + addr + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after the panic: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	found := false
	for _, v := range s.rec.Snapshot() {
		if v.Endpoint == endpoint && v.Sampled == "error" {
			found = true
		}
	}
	if !found {
		t.Errorf("no error record retained for %s", endpoint)
	}
	restore()
	resp, body := postRawURL(t, "http://"+addr+"/v1/schedule", string(schedBody(src)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile after the panic: %d %s", resp.StatusCode, body)
	}
}

// TestPanicSingleRequest: a panicking /v1/schedule is a 500 internal.
func TestPanicSingleRequest(t *testing.T) {
	s, reg, addr := panicServer(t)
	src := schedSource("panics, single")
	restore := panicSource(t, src)
	resp, body := postRawURL(t, "http://"+addr+"/v1/schedule", string(schedBody(src)))
	checkPanicked(t, "single request", resp.StatusCode, body)
	checkAfterPanic(t, s, reg, addr, "/v1/schedule", src, restore)
}

// TestPanicBatchElement: a panicking /v1/batch element is a tagged 500
// internal; its siblings answer.
func TestPanicBatchElement(t *testing.T) {
	s, reg, addr := panicServer(t)
	src := schedSource("panics, batch")
	restore := panicSource(t, src)
	cells := warmCells()
	resp, out := postBatch(t, "http://"+addr, []testBatchItem{
		{Request: json.RawMessage(cells[0])},
		{Op: "schedule", Request: schedBody(src)},
		{Request: json.RawMessage(cells[1])},
		{Op: "schedule", Request: schedBody(schedSource("a sibling, batch"))},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, out)
	}
	frames := parseBatchStream(t, out)
	for i := range 4 {
		if i == 1 {
			checkPanicked(t, "element 1", frames[i].status, frames[i].payload)
		} else if frames[i].status != http.StatusOK {
			t.Errorf("element %d: %d %s", i, frames[i].status, frames[i].payload)
		}
	}
	checkAfterPanic(t, s, reg, addr, "/v1/batch", src, restore)
}

// TestPanicWireElement: the same over the wire protocol.
func TestPanicWireElement(t *testing.T) {
	s, reg, addr := panicServer(t)
	src := schedSource("panics, wire")
	restore := panicSource(t, src)
	cells := warmCells()
	conn := dialWire(t, addr)
	sendWireFrame(t, conn, &wire.ReqFrame{Elems: []wire.ReqElem{
		{Tag: 1, Op: wire.OpSimulate, Payload: []byte(cells[0])},
		{Tag: 2, Op: wire.OpSchedule, Payload: schedBody(src)},
		{Tag: 3, Op: wire.OpSchedule, Payload: schedBody(schedSource("a sibling, wire"))},
	}})
	got := readWireFrame(t, bufio.NewReader(conn))
	checkPanicked(t, "tag 2", got[2].status, got[2].payload)
	for _, tag := range []uint32{1, 3} {
		if got[tag].status != http.StatusOK {
			t.Errorf("tag %d: %d %s", tag, got[tag].status, got[tag].payload)
		}
	}
	checkAfterPanic(t, s, reg, addr, "/wire/batch", src, restore)
}

// TestFrameBufRoomGrowth checks that a run buffer grows by doubling, never
// past frameBufCap, and refuses a run that would take it past the cap.
func TestFrameBufRoomGrowth(t *testing.T) {
	f := &frameBuf{b: make([]byte, 0, 512)}
	var caps []int
	for f.room(1000) {
		f.b = append(f.b, make([]byte, 1000)...)
		if c := cap(f.b); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	want := []int{1024, 2048, 4096, 8192, 16384, 32768, frameBufCap}
	if fmt.Sprint(caps) != fmt.Sprint(want) {
		t.Errorf("capacities %v, want %v", caps, want)
	}
	if len(f.b)+1000 <= frameBufCap {
		t.Errorf("room refused at %d bytes, with 1000 more still fitting", len(f.b))
	}
	f = &frameBuf{b: make([]byte, 0, 512)}
	if !f.room(40000) || cap(f.b) != 40000 {
		t.Errorf("one large element: cap %d, want 40000", cap(f.b))
	}
}
