package fleet_test

// The router→backend hop's contracts beyond the deterministic endpoints:
// /v1/batch streams through byte-identically and element by element, an
// over-limit body and a large body to an unknown path relay the backend's
// own refusal bytes, the prober's four verdicts, a request the client
// abandons mid-hop takes no backend out of rotation and is not re-sent,
// and a backend failing mid-body cuts a stream but reroutes a buffered
// answer.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/fleet"
)

// batchElem is one element of a /v1/batch stream: its status and payload.
type batchElem struct {
	status int
	body   []byte
}

// readBatch parses a /v1/batch stream — a header line per element, its
// payload bytes, and the closing done line — into elements by index.
func readBatch(t *testing.T, br *bufio.Reader) map[int]batchElem {
	t.Helper()
	out := map[int]batchElem{}
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("batch stream ended without its done line: %v (read %d elements)", err, len(out))
		}
		var h struct {
			Index  int  `json:"index"`
			Status int  `json:"status"`
			Bytes  int  `json:"bytes"`
			Done   bool `json:"done"`
		}
		if err := json.Unmarshal(line, &h); err != nil {
			t.Fatalf("batch header line %q: %v", line, err)
		}
		if h.Done {
			return out
		}
		body := make([]byte, h.Bytes)
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatalf("element %d payload: %v", h.Index, err)
		}
		out[h.Index] = batchElem{status: h.Status, body: body}
	}
}

// TestFleetBatchByteIdentity: every /v1/batch element through the router is
// byte-identical to the element the answering backend streams directly.
func TestFleetBatchByteIdentity(t *testing.T) {
	_, _, router := startFleet(t, 3, nil)
	body := []byte(`[
		{"request":{"workload":"cmp","model":"sentinel","width":4}},
		{"op":"schedule","request":{"workload":"wc","model":"sentinel","width":4}},
		{"request":{"workload":"nope","model":"sentinel"}},
		{"request":{"workload":"cmp","model":"warp-drive"}},
		{"request":{"workload":"grep","model":"sentinel+stores","width":8}}
	]`)
	stream := func(addr string) (map[int]batchElem, string) {
		t.Helper()
		resp, err := http.Post("http://"+addr+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s /v1/batch: status %d: %s", addr, resp.StatusCode, b)
		}
		return readBatch(t, bufio.NewReader(resp.Body)), resp.Header.Get("X-Fleet-Backend")
	}
	proxied, backend := stream(router)
	if backend == "" || backend == "cache" {
		t.Fatalf("batch answered by %q, want a backend", backend)
	}
	direct, _ := stream(backend)
	if len(proxied) != 5 || len(direct) != 5 {
		t.Fatalf("proxied stream carried %d elements, direct %d, want 5", len(proxied), len(direct))
	}
	for i, d := range direct {
		p := proxied[i]
		if p.status != d.status || !bytes.Equal(p.body, d.body) {
			t.Errorf("element %d: proxied %d %s\ndirect %d %s", i, p.status, p.body, d.status, d.body)
		}
	}
}

// startStub serves the handler h builds on a loopback listener and returns
// its address. The release channel h receives is closed before the server
// shuts down, so a handler holding a request can wait on it and never
// blocks Close.
func startStub(t *testing.T, h func(release <-chan struct{}) http.HandlerFunc) string {
	t.Helper()
	release := make(chan struct{})
	srv := httptest.NewServer(h(release))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) })
	return strings.TrimPrefix(srv.URL, "http://")
}

// startRouter runs a router over addrs with the prober off, so health moves
// only on what the proxied hops observe.
func startRouter(t *testing.T, addrs []string) string {
	t.Helper()
	rt, err := fleet.New(fleet.Config{Backends: addrs, ProbeInterval: -1, RespCacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestFleetBatchStreamsElementByElement: the router relays a batch stream
// as it arrives. The stub holds element 2 until the client has read
// element 1 through the router; a router that buffered the stream would
// hold element 1 until the stub gave up waiting.
func TestFleetBatchStreamsElementByElement(t *testing.T) {
	readOne := make(chan struct{})
	var byClient atomic.Bool
	addr := startStub(t, func(release <-chan struct{}) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintf(w, "{\"index\":0,\"status\":200,\"bytes\":6}\nfirst\n")
			w.(http.Flusher).Flush()
			select {
			case <-readOne:
				byClient.Store(true)
			case <-time.After(3 * time.Second):
			case <-release:
			}
			fmt.Fprintf(w, "{\"index\":1,\"status\":200,\"bytes\":7}\nsecond\n{\"done\":true,\"elements\":2}\n")
		}
	})
	router := startRouter(t, []string{addr})

	resp, err := http.Post("http://"+router+"/v1/batch", "application/json", strings.NewReader(`[{}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || !strings.Contains(line, `"index":0`) {
		t.Fatalf("first element header %q: %v", line, err)
	}
	first := make([]byte, 6)
	if _, err := io.ReadFull(br, first); err != nil || string(first) != "first\n" {
		t.Fatalf("first element payload %q: %v", first, err)
	}
	close(readOne)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(rest, []byte(`{"done":true,"elements":2}`+"\n")) {
		t.Fatalf("stream tail %q lacks the done line", rest)
	}
	if !byClient.Load() {
		t.Fatal("element 1 reached the client only after the stub stopped waiting: the router buffered the stream")
	}
}

// TestFleetOverLimitBodyRelaysRefusal: a body one byte over the backends'
// limit cannot be buffered for a retry; the router forwards it anyway and
// relays the backend's own refusal bytes (a 413 "too_large" envelope).
func TestFleetOverLimitBodyRelaysRefusal(t *testing.T) {
	_, _, router := startFleet(t, 2, func(c *fleet.Config) { c.RespCacheEntries = -1 })
	body := bytes.Repeat([]byte(" "), 4<<20+1)
	proxied := post(t, router, "/v1/simulate", body)
	if proxied.backend == "" || proxied.backend == "cache" {
		t.Fatalf("over-limit body answered by %q (status %d: %s), want a backend", proxied.backend, proxied.status, proxied.body)
	}
	direct := post(t, proxied.backend, "/v1/simulate", body)
	if direct.status != http.StatusRequestEntityTooLarge || !bytes.Contains(direct.body, []byte(`"too_large"`)) {
		t.Fatalf("direct over-limit answer %d %s, want the 413 too-large envelope", direct.status, direct.body)
	}
	if proxied.status != direct.status || proxied.ctype != direct.ctype || !bytes.Equal(proxied.body, direct.body) {
		t.Fatalf("proxied %d %q %s\ndirect %d %q %s", proxied.status, proxied.ctype, proxied.body,
			direct.status, direct.ctype, direct.body)
	}
}

// TestFleetOverLimitBodyFreshAndOnce: the router forwards an over-limit
// body chunked, on a freshly dialed connection rather than a pooled one, and
// never retries it — even on a refusal that reroutes any other request (a
// draining 503): that refusal reaches the client as the backend sent it.
func TestFleetOverLimitBodyFreshAndOnce(t *testing.T) {
	type hit struct {
		remote  string
		chunked bool
		size    int64
	}
	var mu sync.Mutex
	hits := map[string][]hit{}
	var addrs []string
	for range 2 {
		var addr string
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n, _ := io.Copy(io.Discard, r.Body)
			mu.Lock()
			hits[addr] = append(hits[addr], hit{r.RemoteAddr, len(r.TransferEncoding) > 0 && r.TransferEncoding[0] == "chunked", n})
			mu.Unlock()
			if n > 4<<20 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":{"kind":"draining","message":"server is draining"}}`+"\n") //nolint:errcheck
				return
			}
			io.WriteString(w, "ok\n") //nolint:errcheck
		}))
		t.Cleanup(srv.Close)
		addr = strings.TrimPrefix(srv.URL, "http://")
		addrs = append(addrs, addr)
	}
	router := startRouter(t, addrs)
	// Small requests until both backends hold a pooled connection.
	for i := 0; ; i++ {
		mu.Lock()
		both := len(hits[addrs[0]]) > 0 && len(hits[addrs[1]]) > 0
		mu.Unlock()
		if both {
			break
		}
		if i == 64 {
			t.Fatal("64 keys all routed to one backend")
		}
		post(t, router, "/v1/simulate", []byte(fmt.Sprintf(`{"workload":"k%d"}`, i)))
	}
	before := map[string]int{}
	pooled := map[string]bool{}
	mu.Lock()
	for a, hs := range hits {
		before[a] = len(hs)
		for _, h := range hs {
			pooled[h.remote] = true
		}
	}
	mu.Unlock()

	got := post(t, router, "/v1/simulate", bytes.Repeat([]byte(" "), 4<<20+1))
	if got.status != http.StatusServiceUnavailable || !bytes.Contains(got.body, []byte(`"draining"`)) {
		t.Fatalf("over-limit body answered %d %s by %q, want the backend's draining refusal relayed", got.status, got.body, got.backend)
	}
	mu.Lock()
	defer mu.Unlock()
	var sent []hit
	for a, hs := range hits {
		sent = append(sent, hs[before[a]:]...)
	}
	if len(sent) != 1 {
		t.Fatalf("over-limit body reached the backends %d times, want once: %+v", len(sent), sent)
	}
	if h := sent[0]; !h.chunked || h.size != 4<<20+1 || pooled[h.remote] {
		t.Fatalf("over-limit body arrived %+v, want all of it chunked on a fresh connection", h)
	}
}

// TestFleetUnknownPathLargeBody: a large POST to a path no backend serves
// relays the backend's 404 bytes. The backend answers without reading the
// body, so the router reads the answer while it is still writing the body;
// 4 MiB is the largest body the router holds whole.
func TestFleetUnknownPathLargeBody(t *testing.T) {
	_, _, router := startFleet(t, 2, func(c *fleet.Config) { c.RespCacheEntries = -1 })
	for _, size := range []int{3 << 20, 4 << 20} {
		body := bytes.Repeat([]byte("x"), size)
		proxied := post(t, router, "/v1/nope", body)
		if proxied.backend == "" || proxied.backend == "cache" {
			t.Fatalf("%d bytes: unknown path answered by %q (status %d: %s), want a backend",
				size, proxied.backend, proxied.status, proxied.body)
		}
		direct := post(t, proxied.backend, "/v1/nope", body)
		if direct.status != http.StatusNotFound {
			t.Fatalf("direct unknown path status %d, want 404: %s", direct.status, direct.body)
		}
		if proxied.status != direct.status || proxied.ctype != direct.ctype || !bytes.Equal(proxied.body, direct.body) {
			t.Fatalf("%d bytes: proxied %d %q %s\ndirect %d %q %s", size, proxied.status, proxied.ctype,
				proxied.body, direct.status, direct.ctype, direct.body)
		}
	}
}

// backendRow is one backend's row of /fleet/status.
type backendRow struct {
	Addr     string `json:"addr"`
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining"`
	Failures int    `json:"probe_failures"`
}

func fleetStatus(t *testing.T, router string) map[string]backendRow {
	t.Helper()
	var st struct {
		Backends []backendRow `json:"backends"`
	}
	r := get(t, router, "/fleet/status")
	if err := json.Unmarshal(r.body, &st); err != nil {
		t.Fatalf("fleet/status: %v\n%s", err, r.body)
	}
	out := map[string]backendRow{}
	for _, b := range st.Backends {
		out[b.Addr] = b
	}
	return out
}

// TestFleetProbeVerdicts: the prober's four verdicts — a 200 is ready, a
// draining 503 stays alive but takes no new keys, any other refusal is not
// ready at once, and a /readyz that outlasts ProbeTimeout counts as a
// failed probe.
func TestFleetProbeVerdicts(t *testing.T) {
	var mode atomic.Value
	mode.Store("warming")
	flipper := startStub(t, func(<-chan struct{}) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if mode.Load() == "ready" {
				w.Write([]byte("ready\n")) //nolint:errcheck
				return
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("warming\n")) //nolint:errcheck
		}
	})
	draining := startStub(t, func(<-chan struct{}) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n")) //nolint:errcheck
		}
	})
	hung := startStub(t, func(release <-chan struct{}) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}
	})
	rt, err := fleet.New(fleet.Config{
		Backends:         []string{flipper, draining, hung},
		ProbeInterval:    10 * time.Millisecond,
		ProbeTimeout:     100 * time.Millisecond,
		FailureThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	router := strings.TrimPrefix(srv.URL, "http://")

	waitFor := func(what string, ok func(map[string]backendRow) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := fleetStatus(t, router)
			if ok(st) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("never saw %s: %+v", what, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("not ready, draining and timed out", func(st map[string]backendRow) bool {
		f, d, h := st[flipper], st[draining], st[hung]
		return !f.Ready && f.Failures == 0 &&
			d.Ready && d.Draining && d.Failures == 0 &&
			!h.Ready && h.Failures >= 2
	})
	mode.Store("ready")
	waitFor("the warmed backend ready", func(st map[string]backendRow) bool {
		f := st[flipper]
		return f.Ready && !f.Draining && f.Failures == 0
	})
}

// TestFleetAbandonedRequestKeepsBackends: a client that gives up mid-hop is
// no evidence against the backend. A /v1/batch and a POST to an unknown
// path, each abandoned while the backend holds it, leave every backend
// ready and reach exactly one backend each.
func TestFleetAbandonedRequestKeepsBackends(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{} // requests each path brought to any backend
	arrived := make(chan struct{}, 8)
	var addrs []string
	for i := 0; i < 3; i++ {
		addrs = append(addrs, startStub(t, func(release <-chan struct{}) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				seen[r.URL.Path]++
				mu.Unlock()
				arrived <- struct{}{}
				select {
				case <-release:
				case <-r.Context().Done():
				}
			}
		}))
	}
	router := startRouter(t, addrs)

	paths := []string{"/v1/batch", "/v1/nope"}
	for _, path := range paths {
		// Give up once the backend holds the request: mid-hop.
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
			}
			cancel()
		}()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+router+path,
			strings.NewReader(`[{"request":{"workload":"cmp","model":"sentinel"}}]`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			t.Fatalf("%s answered %d before the client gave up; the stub must hold it", path, resp.StatusCode)
		}
	}
	// A reroute or a health mark would follow the abandonment at once.
	time.Sleep(200 * time.Millisecond)

	st := fleetStatus(t, router)
	down := 0
	for _, a := range addrs {
		if !st[a].Ready {
			down++
		}
	}
	if down > 0 {
		t.Errorf("%d of %d backends out of rotation after abandoned requests: %+v", down, len(addrs), st)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, path := range paths {
		if seen[path] != 1 {
			t.Errorf("%s reached backends %d times, want once: an abandoned hop is not re-sent", path, seen[path])
		}
	}
}

// TestFleetHeadRelays: a HEAD answer carries no body whatever its framing
// says, so the hop relays it at once instead of waiting for body bytes
// that never come.
func TestFleetHeadRelays(t *testing.T) {
	_, _, router := startFleet(t, 1, func(c *fleet.Config) {
		c.RespCacheEntries = -1
		c.RequestTimeout = 2 * time.Second
	})
	client := &http.Client{Timeout: 10 * time.Second}
	head := func(addr string) *http.Response {
		t.Helper()
		resp, err := client.Head("http://" + addr + "/v1/figures?section=table3")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	start := time.Now()
	proxied := head(router)
	backend := proxied.Header.Get("X-Fleet-Backend")
	if elapsed := time.Since(start); proxied.StatusCode != http.StatusOK || backend == "" || elapsed > time.Second {
		t.Fatalf("HEAD through the router: status %d from %q after %v", proxied.StatusCode, backend, elapsed)
	}
	direct := head(backend)
	if proxied.StatusCode != direct.StatusCode || proxied.Header.Get("Content-Type") != direct.Header.Get("Content-Type") ||
		proxied.ContentLength != direct.ContentLength {
		t.Fatalf("HEAD proxied %d %q length %d, direct %d %q length %d", proxied.StatusCode,
			proxied.Header.Get("Content-Type"), proxied.ContentLength,
			direct.StatusCode, direct.Header.Get("Content-Type"), direct.ContentLength)
	}
}

// cutStream writes the first element of a chunked batch-shaped answer,
// flushes it, and drops the connection: a backend failing mid-body.
func cutStream(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fmt.Fprintf(w, "{\"index\":0,\"status\":200,\"bytes\":6}\nfirst\n")
	w.(http.Flusher).Flush()
	conn, _, err := w.(http.Hijacker).Hijack()
	if err == nil {
		conn.Close()
	}
}

// TestFleetStreamCutAborts: when a backend fails partway through a
// streamed /v1/batch, the client already has the head, so the router
// aborts the response; the client sees a truncated body, not a clean end.
func TestFleetStreamCutAborts(t *testing.T) {
	addr := startStub(t, func(<-chan struct{}) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck
			cutStream(w)
		}
	})
	router := startRouter(t, []string{addr})
	resp, err := http.Post("http://"+router+"/v1/batch", "application/json", strings.NewReader(`[{}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("cut stream reached the client as a complete %d body %q", resp.StatusCode, got)
	}
	if !strings.HasSuffix(string(got), "first\n") {
		t.Fatalf("client read %q before the cut, want the first element", got)
	}
	if !fleetStatus(t, router)[addr].Ready {
		t.Fatal("a stream cut mid-body took the backend out of rotation")
	}
}

// TestFleetBufferedCutReroutes: a deterministic endpoint's answer is
// buffered whatever its framing, so a backend that fails mid-body is
// rerouted like any failed hop and the client gets a whole answer.
func TestFleetBufferedCutReroutes(t *testing.T) {
	var calls atomic.Int32
	var addrs []string
	for i := 0; i < 2; i++ {
		addrs = append(addrs, startStub(t, func(<-chan struct{}) http.HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body) //nolint:errcheck
				if calls.Add(1) == 1 {
					cutStream(w)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintf(w, "{\"part\":1}\n")
				w.(http.Flusher).Flush()
				fmt.Fprintf(w, "{\"part\":2}\n")
			}
		}))
	}
	router := startRouter(t, addrs)
	got := post(t, router, "/v1/schedule", []byte(`{"workload":"cmp","model":"sentinel"}`))
	if got.status != http.StatusOK || string(got.body) != "{\"part\":1}\n{\"part\":2}\n" || calls.Load() != 2 {
		t.Fatalf("after a cut first hop: %d %q from %q after %d backend calls, want the second backend's whole answer",
			got.status, got.body, got.backend, calls.Load())
	}
}

// TestFleetStalledOverLimitClient: a client that sends more than the body
// limit and then stalls still gets the backend's refusal. The router stops
// reading the client's body once the backend has answered, instead of
// holding the request until the client sends again.
func TestFleetStalledOverLimitClient(t *testing.T) {
	_, _, router := startFleet(t, 1, func(c *fleet.Config) { c.RespCacheEntries = -1 })
	conn, err := net.Dial("tcp", router)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		fmt.Fprintf(conn, "POST /v1/simulate HTTP/1.1\r\nHost: router\r\nContent-Length: %d\r\n\r\n", 8<<20)
		conn.Write(bytes.Repeat([]byte(" "), 4<<20+64<<10)) //nolint:errcheck // then stall, connection open
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer for a stalled over-limit body: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !bytes.Contains(body, []byte(`"too_large"`)) {
		t.Fatalf("stalled over-limit body answered %d %s, want the backend's too-large refusal", resp.StatusCode, body)
	}
}
