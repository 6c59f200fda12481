package httpraw

// Pins for the response reader: interim 1xx responses are consumed, not
// mistaken for the final answer (the unframed-body branch would otherwise
// block reading to EOF on a keep-alive connection until the request
// deadline), and bodyless statuses (204/304) never take that branch either.

import (
	"bufio"
	"net/http"
	"strings"
	"testing"
)

func parseRaw(t *testing.T, wire string) (*Response, *bufio.Reader) {
	t.Helper()
	res := new(Response)
	br := bufio.NewReader(strings.NewReader(wire))
	began, err := res.Read(br)
	if err != nil {
		t.Fatalf("Read(%q): %v", wire, err)
	}
	if !began {
		t.Fatalf("Read(%q): began = false after a full response", wire)
	}
	return res, br
}

// TestReadRawResponseSkipsInterim: a 100 Continue ahead of the real
// response (what a backend emits when Expect reaches it) is discarded —
// status, headers and body all come from the final response, and the
// interim's headers never leak into the relay set.
func TestReadRawResponseSkipsInterim(t *testing.T) {
	res, _ := parseRaw(t,
		"HTTP/1.1 100 Continue\r\nX-Interim: leak\r\n\r\n"+
			"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello")
	if res.Status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (the interim 100 must not be the answer)", res.Status)
	}
	if string(res.Body) != "hello" {
		t.Fatalf("body = %q, want %q", res.Body, "hello")
	}
	if res.Close {
		t.Error("Close = true; a framed final response keeps the connection alive")
	}
	if got := string(res.Header("content-type")); got != "application/json" {
		t.Errorf("Content-Type = %q, want the final response's %q", got, "application/json")
	}
	if got := res.Header("x-interim"); got != nil {
		t.Errorf("interim header leaked into the relay set: X-Interim = %q", got)
	}
}

// TestReadRawResponseInterimChain: multiple interims (103 Early Hints then
// 100) still resolve to the final response; an endless interim stream is an
// error, not a hang.
func TestReadRawResponseInterimChain(t *testing.T) {
	res, _ := parseRaw(t,
		"HTTP/1.1 103 Early Hints\r\n\r\nHTTP/1.1 100 Continue\r\n\r\n"+
			"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	if res.Status != http.StatusOK || string(res.Body) != "ok" {
		t.Fatalf("got status %d body %q, want 200 %q", res.Status, res.Body, "ok")
	}

	endless := strings.Repeat("HTTP/1.1 100 Continue\r\n\r\n", 16)
	if _, err := new(Response).Read(bufio.NewReader(strings.NewReader(endless))); err == nil {
		t.Fatal("an interim-only stream parsed without error; want the interim bound to trip")
	}
}

// TestReadRawResponseBodyless: 204/304 carry no body regardless of framing
// headers, and — unlike the unframed default branch — they preserve the
// keep-alive connection: the next response on the same reader must parse.
func TestReadRawResponseBodyless(t *testing.T) {
	res, br := parseRaw(t,
		"HTTP/1.1 204 No Content\r\n\r\n"+
			"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nnext")
	if res.Status != http.StatusNoContent || len(res.Body) != 0 {
		t.Fatalf("204: status %d body %q, want 204 with no body", res.Status, res.Body)
	}
	if res.Close {
		t.Error("204: Close = true; a bodyless response keeps the connection alive")
	}
	next := new(Response)
	_, err := next.Read(br)
	if err != nil || next.Status != http.StatusOK || string(next.Body) != "next" {
		t.Fatalf("response after the 204 did not parse: %v (status %d body %q)", err, next.Status, next.Body)
	}

	// A 304's Content-Length describes the representation it elides; reading
	// it as framing would swallow the next response (or block to deadline).
	res, br = parseRaw(t,
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\nEtag: \"v1\"\r\n\r\n"+
			"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	if res.Status != http.StatusNotModified || len(res.Body) != 0 || res.Close {
		t.Fatalf("304: status %d body %q Close %v, want bodyless keep-alive", res.Status, res.Body, res.Close)
	}
	next = new(Response)
	_, err = next.Read(br)
	if err != nil || next.Status != http.StatusOK || string(next.Body) != "ok" {
		t.Fatalf("response after the 304 did not parse: %v (status %d body %q)", err, next.Status, next.Body)
	}
}

// TestReadRawResponseRejectsAmbiguousFraming: every response whose body
// length net/http would refuse to settle is an error, never a guess that
// could desync the connection. Each input is one net/http also rejects.
func TestReadRawResponseRejectsAmbiguousFraming(t *testing.T) {
	for _, wire := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
		"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551621\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffffff\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nokXX0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n;x\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nA: b\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n" +
			strings.Repeat("A: bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb\r\n", 128) + "\r\n",
		"HTTP/1.1x200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n",
	} {
		if _, err := new(Response).Read(bufio.NewReader(strings.NewReader(wire))); err == nil {
			t.Errorf("Read(%q) accepted it", wire)
		}
		if _, _, _, err := oracleRead([]byte(wire)); err == nil {
			t.Errorf("net/http accepts %q; the case does not belong here", wire)
		}
	}
}

// TestReadRawResponseRefusesObsFold: a header line opening with whitespace
// continues the previous header. net/http folds it into that value, so here
// the Connection header would gain a close token that a line-by-line read
// misses; the reader refuses the response instead, as RFC 9112 lets a
// proxy do.
func TestReadRawResponseRefusesObsFold(t *testing.T) {
	wire := "HTTP/1.1 200 OK\r\nConnection: x\r\n a:,close\r\nContent-Length: 0\r\n\r\n"
	if _, err := new(Response).Read(bufio.NewReader(strings.NewReader(wire))); err == nil {
		t.Errorf("Read(%q) accepted an obs-fold continuation", wire)
	}
}

// TestReadRawResponseKeepAlive: the keep-alive verdict reads the
// Connection header as a token list and follows HTTP/1.0's opt-in rule;
// HTTP/1.0 ignores Transfer-Encoding, and a 101 ends HTTP on the
// connection.
func TestReadRawResponseKeepAlive(t *testing.T) {
	for _, c := range []struct {
		wire  string
		close bool
		body  string
	}{
		{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok", false, "ok"},
		{"HTTP/1.1 200 OK\r\nConnection: keep-alive, Close\r\nContent-Length: 2\r\n\r\nok", true, "ok"},
		{"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nok", false, "ok"},
		{"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", true, "ok"},
		{"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", true, "2\r\nok\r\n0\r\n\r\n"},
		{"HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\n\r\nnot http", true, ""},
	} {
		res, _ := parseRaw(t, c.wire)
		if res.Close != c.close || string(res.Body) != c.body {
			t.Errorf("Read(%q): close %v body %q, want close %v body %q", c.wire, res.Close, res.Body, c.close, c.body)
		}
		if _, body, close, err := oracleRead([]byte(c.wire)); err != nil || close != c.close || string(body) != c.body {
			t.Errorf("net/http on %q: close %v body %q err %v; the case is wrong", c.wire, close, body, err)
		}
	}
}
