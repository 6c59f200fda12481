package main

// The benchmark's own load client: a minimal HTTP/1.1 keep-alive client and
// a minimal wire-protocol client, written against the protocols' published
// framing rather than the program's parsers, so a change to those parsers
// cannot move the yardstick.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// opTimeout bounds one exchange; an op that exceeds it fails.
const opTimeout = 10 * time.Second

// appendPost renders a POST request with a JSON body. id, when non-empty,
// is sent as X-Request-Id.
func appendPost(dst []byte, path string, body []byte, id string) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: fleet\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n"...)
	if id != "" {
		dst = append(dst, "X-Request-Id: "...)
		dst = append(dst, id...)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

// appendGet renders a GET request for pathQuery.
func appendGet(dst []byte, pathQuery, id string) []byte {
	dst = append(dst, "GET "...)
	dst = append(dst, pathQuery...)
	dst = append(dst, " HTTP/1.1\r\nHost: fleet\r\n"...)
	if id != "" {
		dst = append(dst, "X-Request-Id: "...)
		dst = append(dst, id...)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// response is one parsed HTTP response. Body aliases the connection's
// buffer and is valid until the next exchange on that connection.
type response struct {
	Status int
	Body   []byte
}

// httpConn is one keep-alive HTTP/1.1 connection.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func (h *httpConn) redial() error {
	if h.c != nil {
		h.c.Close()
	}
	c, err := net.DialTimeout("tcp", h.addr, opTimeout)
	if err != nil {
		h.c = nil
		return err
	}
	h.c = c
	h.br = bufio.NewReaderSize(c, 64<<10)
	return nil
}

func (h *httpConn) Close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// do writes one preserialized request and reads its response. A transport
// error leaves the connection closed; the next do redials.
func (h *httpConn) do(req []byte) (response, error) {
	if h.c == nil {
		if err := h.redial(); err != nil {
			return response{}, err
		}
	}
	h.c.SetDeadline(time.Now().Add(opTimeout)) //nolint:errcheck // a dead conn fails the write below
	if _, err := h.c.Write(req); err != nil {
		h.Close()
		return response{}, err
	}
	resp, keep, err := h.read()
	if err != nil || !keep {
		h.Close()
	}
	return resp, err
}

// read parses one response: status line, headers, then a Content-Length or
// chunked body.
func (h *httpConn) read() (resp response, keep bool, err error) {
	line, err := h.line()
	if err != nil {
		return resp, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return resp, false, fmt.Errorf("bad status line %q", line)
	}
	if resp.Status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return resp, false, fmt.Errorf("bad status line %q", line)
	}
	clen, chunked, keep := -1, false, true
	for {
		line, err = h.line()
		if err != nil {
			return resp, false, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return resp, false, fmt.Errorf("bad header %q", line)
		}
		name, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case asciiEqualFold(name, "Content-Length"):
			if clen, err = strconv.Atoi(string(val)); err != nil || clen < 0 {
				return resp, false, fmt.Errorf("bad Content-Length %q", val)
			}
		case asciiEqualFold(name, "Transfer-Encoding"):
			chunked = asciiEqualFold(val, "chunked")
		case asciiEqualFold(name, "Connection"):
			keep = !asciiEqualFold(val, "close")
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		err = h.readChunked()
	case clen >= 0:
		h.body = grow(h.body, clen)
		_, err = io.ReadFull(h.br, h.body)
	default:
		return resp, false, errors.New("response without framing")
	}
	resp.Body = h.body
	return resp, keep && err == nil, err
}

func (h *httpConn) readChunked() error {
	for {
		line, err := h.line()
		if err != nil {
			return err
		}
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			for { // trailers end at an empty line
				if line, err = h.line(); err != nil || len(line) == 0 {
					return err
				}
			}
		}
		old := len(h.body)
		h.body = grow(h.body, old+int(n))
		if _, err := io.ReadFull(h.br, h.body[old:]); err != nil {
			return err
		}
		if line, err = h.line(); err != nil || len(line) != 0 {
			return fmt.Errorf("chunk not followed by CRLF: %v", err)
		}
	}
}

// line reads one CRLF-terminated line without the terminator. The result
// aliases the reader's buffer.
func (h *httpConn) line() ([]byte, error) {
	l, err := h.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	l = bytes.TrimSuffix(l[:len(l)-1], []byte("\r"))
	return l, nil
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		nb := make([]byte, n, n*2)
		copy(nb, b)
		return nb
	}
	return b[:n]
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// Wire protocol framing: magic 0xF7 'S' 'B' 'W', version 1, kind byte, then
// LEB128 varints. Request: timeout_ms, count, count × (tag, op, len,
// payload). Response: count, count × (tag, status, len, payload).
var wireMagic = []byte{0xF7, 'S', 'B', 'W', 1}

const (
	wireKindRequest  = 1
	wireKindResponse = 2
	wireOpSimulate   = 1
	wireOpSchedule   = 2
)

type wireElem struct {
	op      byte
	payload []byte
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// appendWireRequest renders one request frame; element i gets tag i.
func appendWireRequest(dst []byte, timeoutMS uint64, elems []wireElem) []byte {
	dst = append(dst, wireMagic...)
	dst = append(dst, wireKindRequest)
	dst = appendUvarint(dst, timeoutMS)
	dst = appendUvarint(dst, uint64(len(elems)))
	for i, e := range elems {
		dst = appendUvarint(dst, uint64(i))
		dst = append(dst, e.op)
		dst = appendUvarint(dst, uint64(len(e.payload)))
		dst = append(dst, e.payload...)
	}
	return dst
}

// wireResult is one response element; payload aliases the connection's
// buffer until the next exchange.
type wireResult struct {
	tag, status int
	payload     []byte
}

// wireConn is one keep-alive wire-protocol connection.
type wireConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
	res  []wireResult
}

func (w *wireConn) Close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

// do sends one frame and reads the whole response frame.
func (w *wireConn) do(frame []byte) ([]wireResult, error) {
	if w.c == nil {
		c, err := net.DialTimeout("tcp", w.addr, opTimeout)
		if err != nil {
			return nil, err
		}
		w.c, w.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	w.c.SetDeadline(time.Now().Add(opTimeout)) //nolint:errcheck // a dead conn fails the write below
	if _, err := w.c.Write(frame); err != nil {
		w.Close()
		return nil, err
	}
	res, err := w.read()
	if err != nil {
		w.Close()
	}
	return res, err
}

func (w *wireConn) read() ([]wireResult, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(w.br, hdr[:]); err != nil {
		return nil, err
	}
	if !bytes.Equal(hdr[:5], wireMagic) || hdr[5] != wireKindResponse {
		return nil, fmt.Errorf("unexpected wire frame header %x", hdr)
	}
	count, err := w.uvarint()
	if err != nil {
		return nil, err
	}
	if count == 0 || count > 1024 {
		return nil, fmt.Errorf("wire response of %d elements", count)
	}
	w.buf, w.res = w.buf[:0], w.res[:0]
	type span struct{ off, n int }
	spans := make([]span, 0, count)
	for i := 0; i < count; i++ {
		var v [3]int
		for j := range v {
			if v[j], err = w.uvarint(); err != nil {
				return nil, err
			}
		}
		if v[2] > 4<<20 {
			return nil, fmt.Errorf("wire element of %d bytes", v[2])
		}
		off := len(w.buf)
		w.buf = grow(w.buf, off+v[2])
		if _, err := io.ReadFull(w.br, w.buf[off:]); err != nil {
			return nil, err
		}
		w.res = append(w.res, wireResult{tag: v[0], status: v[1]})
		spans = append(spans, span{off, v[2]})
	}
	for i, s := range spans { // slice after the last grow so no alias is stale
		w.res[i].payload = w.buf[s.off : s.off+s.n]
	}
	return w.res, nil
}

func (w *wireConn) uvarint() (int, error) {
	var v uint64
	for i := 0; i < 5; i++ {
		b, err := w.br.ReadByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if v > 1<<31-1 {
				return 0, errors.New("wire varint out of range")
			}
			return int(v), nil
		}
	}
	return 0, errors.New("wire varint too long")
}
