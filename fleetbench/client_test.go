package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"testing"

	"sentinel/internal/wire"
)

// The client's framing agrees with net/http's server on Content-Length
// and chunked bodies, keep-alive reuse, and the request headers it sends.
func TestHTTPClientAgainstNetHTTP(t *testing.T) {
	addr := startHTTP(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path == "/chunked" {
			for i := 0; i < 3; i++ {
				w.Write(body) //nolint:errcheck
				w.(http.Flusher).Flush()
			}
			return
		}
		w.WriteHeader(201)
		w.Write(append([]byte(r.Header.Get("X-Request-Id")), body...)) //nolint:errcheck
	}))
	c := &httpConn{addr: addr}
	defer c.Close()
	for i := 0; i < 3; i++ { // the same connection carries every exchange
		r, err := c.do(appendPost(nil, "/plain", []byte("hello"), "id7"))
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != 201 || string(r.Body) != "id7hello" {
			t.Fatalf("plain: %d %q", r.Status, r.Body)
		}
		r, err = c.do(appendPost(nil, "/chunked", []byte("xyz"), ""))
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != 200 || !bytes.Equal(r.Body, []byte("xyzxyzxyz")) {
			t.Fatalf("chunked: %d %q", r.Status, r.Body)
		}
		r, err = c.do(appendGet(nil, "/plain?x=1", ""))
		if err != nil || r.Status != 201 {
			t.Fatalf("get: %v %d", err, r.Status)
		}
	}
}

// The wire encoder and decoder agree with the protocol's own codec.
func TestWireAgainstProtocolCodec(t *testing.T) {
	elems := []wireElem{{op: wireOpSimulate, payload: []byte(`{"a":1}`)}, {op: wireOpSchedule, payload: []byte(`{}`)}}
	fr, err := wire.ReadRequest(bufio.NewReader(bytes.NewReader(appendWireRequest(nil, 5, elems))), wire.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if fr.TimeoutMS != 5 || len(fr.Elems) != 2 {
		t.Fatalf("decoded %+v", fr)
	}
	for i, e := range fr.Elems {
		if e.Tag != uint32(i) || e.Op != elems[i].op || !bytes.Equal(e.Payload, elems[i].payload) {
			t.Fatalf("element %d decoded as %+v", i, e)
		}
	}

	resp := wire.AppendResponseHeader(nil, 2)
	resp = append(wire.AppendElemHeader(resp, 1, 422, 3), "bad"...)
	resp = append(wire.AppendElemHeader(resp, 0, 200, 4), "good"...)
	wc := &wireConn{br: bufio.NewReader(bytes.NewReader(resp))}
	res, err := wc.read()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].tag != 1 || res[0].status != 422 || string(res[0].payload) != "bad" ||
		res[1].tag != 0 || res[1].status != 200 || string(res[1].payload) != "good" {
		t.Fatalf("read %+v", res)
	}
}
