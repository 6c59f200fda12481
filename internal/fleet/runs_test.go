package fleet_test

// Ready runs through the router, and a backend panic behind it: the
// router relays a batch's ready elements in a handful of writes on the
// client's connection, and a panicking element is one tagged 500 that
// takes no backend out of rotation and is never front-cached.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/fleet"
	"sentinel/internal/server"
	"sentinel/internal/wire"
	"sentinel/internal/workload"
)

// countListener counts the Write calls made on every connection it
// accepted.
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

// startCountedFleet runs two backends behind a router whose client-facing
// listener is counted, with the router's front cache off so every request
// crosses a hop.
func startCountedFleet(t *testing.T) (*fleet.Router, string, *countListener) {
	t.Helper()
	addrs := []string{startBackend(t).addr, startBackend(t).addr}
	rt, err := fleet.New(fleet.Config{Backends: addrs, ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout: time.Second, RespCacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countListener{Listener: ln}
	srv := &http.Server{Handler: rt.Handler()}
	go srv.Serve(rt.SniffWire(cl)) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return rt, ln.Addr().String(), cl
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

// batchBody is a /v1/batch request of simulate elements.
func batchBody(t *testing.T, reqs []string) []byte {
	t.Helper()
	items := make([]map[string]json.RawMessage, len(reqs))
	for i, r := range reqs {
		items[i] = map[string]json.RawMessage{"request": json.RawMessage(r)}
	}
	b, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wireExchange sends one frame on conn and reads its answer by tag.
func wireExchange(t *testing.T, conn net.Conn, br *bufio.Reader, elems []wire.ReqElem) map[uint32]response {
	t.Helper()
	if _, err := conn.Write(wire.AppendRequest(nil, &wire.ReqFrame{Elems: elems})); err != nil {
		t.Fatal(err)
	}
	count, err := wire.ReadResponseHeader(br, wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[uint32]response{}
	for range count {
		tag, status, plen, err := wire.ReadElemHeader(br, wire.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			t.Fatal(err)
		}
		out[tag] = response{status: status, body: payload}
	}
	return out
}

// TestFleetWarmBatchWrites: a 16-element all-warm batch, over /v1/batch
// and over the wire protocol, reaches the client through the router in at
// most 4 writes; relayed element by element it takes at least 16.
func TestFleetWarmBatchWrites(t *testing.T) {
	const maxWrites = 4
	_, router, cl := startCountedFleet(t)
	cells := warmCells()

	t.Run("http", func(t *testing.T) {
		body := batchBody(t, cells)
		post(t, router, "/v1/batch", body) // fill the backends' response caches
		before := cl.writes.Load()
		got := post(t, router, "/v1/batch", body)
		writes := cl.writes.Load() - before
		if got.status != http.StatusOK || len(readBatch(t, bufio.NewReader(bytes.NewReader(got.body)))) != len(cells) {
			t.Fatalf("warm batch: %d %s", got.status, got.body)
		}
		t.Logf("16-element warm /v1/batch through the router: %d writes", writes)
		if writes > maxWrites {
			t.Errorf("took %d writes, want at most %d", writes, maxWrites)
		}
	})

	t.Run("wire", func(t *testing.T) {
		elems := make([]wire.ReqElem, len(cells))
		for i, c := range cells {
			elems[i] = wire.ReqElem{Tag: uint32(i), Op: wire.OpSimulate, Payload: []byte(c)}
		}
		conn, err := net.DialTimeout("tcp", router, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		br := bufio.NewReader(conn)
		wireExchange(t, conn, br, elems)
		before := cl.writes.Load()
		got := wireExchange(t, conn, br, elems)
		writes := cl.writes.Load() - before
		if len(got) != len(elems) {
			t.Fatalf("warm frame answered %d of %d elements", len(got), len(elems))
		}
		t.Logf("16-element warm wire frame through the router: %d writes", writes)
		if writes > maxWrites {
			t.Errorf("took %d writes, want at most %d", writes, maxWrites)
		}
	})
}

// scheduleSource is a small inline program made distinct by its comment.
func scheduleSource(tag string) string {
	return fmt.Sprintf("; %s\nentry:\n    li   r1, 4096\n    li   r2, 7\n    add  r3, r1, r2\n    jsr  putint, r3\n    halt\n", tag)
}

// TestFleetBatchElementPanic: an element whose compile panics on its
// backend comes back through the router as a tagged 500 internal; its
// siblings answer, both backends stay ready, and the same request sent
// alone is answered by a backend, never by a cached 500.
func TestFleetBatchElementPanic(t *testing.T) {
	backends, _, router := startFleet(t, 2, nil)
	src := scheduleSource("panics behind the router")
	restore := server.SetCompileHook(func(_ context.Context, s string) error {
		if s == src {
			panic("compile exploded")
		}
		return nil
	})
	t.Cleanup(restore)
	req, _ := json.Marshal(map[string]any{"source": src, "model": "sentinel", "width": 4})
	cells := warmCells()
	body, _ := json.Marshal([]map[string]any{
		{"request": json.RawMessage(cells[0])},
		{"op": "schedule", "request": json.RawMessage(req)},
		{"request": json.RawMessage(cells[1])},
	})
	got := post(t, router, "/v1/batch", body)
	if got.status != http.StatusOK {
		t.Fatalf("batch: %d %s", got.status, got.body)
	}
	elems := readBatch(t, bufio.NewReader(bytes.NewReader(got.body)))
	if len(elems) != 3 {
		t.Fatalf("batch answered %d of 3 elements", len(elems))
	}
	for i, e := range elems {
		switch {
		case i == 1 && (e.status != http.StatusInternalServerError || !bytes.Contains(e.body, []byte(`"internal"`))):
			t.Errorf("element 1: %d %s, want the 500 internal envelope", e.status, e.body)
		case i != 1 && e.status != http.StatusOK:
			t.Errorf("element %d: %d %s", i, e.status, e.body)
		}
	}

	// Alone, the request panics again on its owner (a 500 the router must
	// not cache); with the hook gone the owner compiles it.
	if got := post(t, router, "/v1/schedule", req); got.status != http.StatusInternalServerError {
		t.Fatalf("single panicking request: %d %s", got.status, got.body)
	}
	restore()
	if got := post(t, router, "/v1/schedule", req); got.status != http.StatusOK || got.backend == "cache" {
		t.Fatalf("after the panic: %d from %q, want a 200 from a backend: %s", got.status, got.backend, got.body)
	}
	time.Sleep(100 * time.Millisecond) // a few probe rounds
	for addr, row := range fleetStatus(t, router) {
		if !row.Ready {
			t.Errorf("backend %s not ready after the panic", addr)
		}
	}
	panics := 0
	for _, b := range backends {
		panics += int(promValue(t, b.reg, "server_panics"))
	}
	if panics != 2 {
		t.Errorf("backends counted %d panics, want 2", panics)
	}
}
