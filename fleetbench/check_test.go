package main

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startHTTP serves h on a loopback listener until the test ends.
func startHTTP(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns when Close shuts it down
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

// A response that differs from the expected bytes is a failed op: it
// counts into failed (error_ratio's numerator) and is kept out of the
// latency samples.
func TestFailedCheckCountsAsError(t *testing.T) {
	addr := startHTTP(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "not what the backend said")
	}))
	d := &driver{config: config{workload: "warm", seed: 1}, keys: warmKeys(), cells: cells()}
	d.expect = make([][]byte, len(d.keys))
	for i := range d.expect {
		d.expect[i] = []byte("the backend's answer")
	}
	s := newStream("warm", 1, 0, d.cells)
	var gate sync.RWMutex
	var done atomic.Bool
	time.AfterFunc(200*time.Millisecond, func() { done.Store(true) })
	res := d.worker(&topology{router: addr}, s, &gate, &done, false, 0, time.Now())
	if res.attempted == 0 || res.failed != res.attempted || len(res.samples) != 0 {
		t.Fatalf("attempted %d failed %d samples %d; want every op failed", res.attempted, res.failed, len(res.samples))
	}
	if res.firstErr == nil || !strings.Contains(res.firstErr.Error(), "differs") {
		t.Fatalf("first error %v", res.firstErr)
	}
}

func TestChecks(t *testing.T) {
	o := oracle{out: []int64{1, 2}, memSum: "7"}
	if err := checkFull(response{Status: 200, Body: []byte(`{"out":[1,2],"mem_sum":"7"}`)}, o); err != nil {
		t.Fatal(err)
	}
	if err := checkFull(response{Status: 200, Body: []byte(`{"out":[1,3],"mem_sum":"7"}`)}, o); err == nil {
		t.Fatal("wrong out accepted")
	}
	if err := checkFault(response{Status: 422, Body: []byte(`{"error":{"kind":"sentinel_exception","pc":6}}`)}); err != nil {
		t.Fatal(err)
	}
	if err := checkFault(response{Status: 422, Body: []byte(`{"error":{"kind":"sentinel_exception"}}`)}); err == nil {
		t.Fatal("fault without a pc accepted")
	}
	if err := checkSchedule(response{Status: 200, Body: []byte(`{"instrs":3,"listing":"x"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := checkSchedule(response{Status: 500, Body: []byte(`{}`)}); err == nil {
		t.Fatal("500 accepted")
	}
}

func TestBatchStream(t *testing.T) {
	expect := [][]byte{[]byte("aa\n"), []byte("b\n")}
	ok := "{\"index\":1,\"status\":200,\"bytes\":2}\nb\n{\"index\":0,\"status\":200,\"bytes\":3}\naa\n{\"done\":true,\"elements\":2}\n"
	if err := checkBatchStream([]byte(ok), []int{0, 1}, expect); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(ok, "aa\n", "ab\n", 1)
	if err := checkBatchStream([]byte(bad), []int{0, 1}, expect); err == nil {
		t.Fatal("wrong element accepted")
	}
	short := strings.Replace(ok, `"elements":2`, `"elements":3`, 1)
	if err := checkBatchStream([]byte(short), []int{0, 1}, expect); err == nil {
		t.Fatal("wrong element count accepted")
	}
	// Index 1 twice and index 0 never: the count and every payload match
	// (both elements are key 1), but element 0 is missing.
	twice := "{\"index\":1,\"status\":200,\"bytes\":2}\nb\n{\"index\":1,\"status\":200,\"bytes\":2}\nb\n{\"done\":true,\"elements\":2}\n"
	if err := checkBatchStream([]byte(twice), []int{1, 1}, expect); err == nil {
		t.Fatal("repeated element accepted")
	}
}
