// Package httpraw reads HTTP/1.1 responses off a buffered connection
// without net/http. A Response keeps its buffers across reads, so a
// steady stream of responses on a keep-alive connection allocates nothing.
// The fleet router's raw proxied hop and sentinelload's closed-loop client
// both read their responses with it.
//
// Framing follows net/http, which FuzzReadRawResponse uses as the oracle:
//   - Interim 1xx responses are consumed and the final response returned,
//     so a 100 Continue is never mistaken for an unframed answer that reads
//     to EOF on a keep-alive connection. A 101 Switching Protocols is final
//     and ends HTTP on its connection.
//   - 204 and 304 carry no body, whatever their framing headers say.
//   - A body is framed by Transfer-Encoding: chunked (HTTP/1.1 and later),
//     else by Content-Length, else it runs to connection close.
//   - The connection stays open unless a Connection header holds the close
//     token, or the response is HTTP/1.0 without the keep-alive token.
package httpraw

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// maxBody bounds one buffered response body, far above any real envelope
// or figures render; a longer body is an error.
const maxBody = 64 << 20

// maxInterim bounds the interim responses ahead of a final one. A server
// sends at most one or two; more means a broken peer.
const maxInterim = 8

// HopHeaders are the HTTP/1.1 connection-scoped headers that must not cross
// a proxy hop. Read leaves them out of a Response's header set.
var HopHeaders = [...]string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// hdrPair records one header as offsets into Response.hdr (name is
// hdr[n0:n1], value hdr[v0:v1]); offsets survive the append-driven
// reallocations that slices would not.
type hdrPair struct{ n0, n1, v0, v1 int }

// Response is one parsed final response. Read reuses its buffers: Body and
// the header bytes are valid until the next Read.
type Response struct {
	Status int
	// Close reports that the connection cannot carry another exchange.
	Close bool
	Body  []byte

	hdr   []byte
	pairs []hdrPair
}

// Read consumes one final response from br into r. began reports whether
// any response byte arrived before a failure: false means a pooled
// connection that failed was stale and the request may be retried.
func (r *Response) Read(br *bufio.Reader) (began bool, err error) {
	for interim := 0; ; interim++ {
		line, err := br.ReadSlice('\n')
		if !began {
			began = len(line) > 0 || err == nil
		}
		if err != nil {
			return began, err
		}
		// "HTTP/1.x NNN", then the end of the line or a space and a reason.
		sl := trimLine(line)
		if len(sl) < 12 || !bytes.HasPrefix(sl, []byte("HTTP/1.")) || !isDigit(sl[7]) ||
			sl[8] != ' ' || !isDigit(sl[9]) || !isDigit(sl[10]) || !isDigit(sl[11]) ||
			len(sl) > 12 && sl[12] != ' ' {
			return true, fmt.Errorf("malformed status line %q", sl)
		}
		http10 := sl[7] == '0'
		r.Status = int(sl[9]-'0')*100 + int(sl[10]-'0')*10 + int(sl[11]-'0')
		clen, te, chunked, closeTok, keepTok := -1, 0, false, false, false
		c0, c1 := 0, 0 // the first Content-Length value, in r.hdr
		r.hdr, r.pairs = r.hdr[:0], r.pairs[:0]
		for {
			h, err := br.ReadSlice('\n')
			if err != nil {
				return true, err
			}
			h = trimLine(h)
			if len(h) == 0 {
				break
			}
			name, val, ok := splitHeader(h)
			if !ok {
				return true, fmt.Errorf("malformed header line %q", h)
			}
			switch {
			case asciiFold(name, "content-length"):
				n, ok := parseUint(val, 10)
				if !ok {
					return true, fmt.Errorf("malformed Content-Length %q", val)
				}
				// Repeats must be spelled alike, as net/http requires: 5
				// and 05 are conflicting headers. The first spelling is
				// kept in hdr, outside any recorded pair.
				if clen >= 0 && !bytes.Equal(val, r.hdr[c0:c1]) {
					return true, fmt.Errorf("conflicting Content-Length headers %q and %q", r.hdr[c0:c1], val)
				}
				if clen < 0 {
					c0 = len(r.hdr)
					r.hdr = append(r.hdr, val...)
					c1 = len(r.hdr)
				}
				clen = n
			case asciiFold(name, "transfer-encoding"):
				te++
				chunked = asciiFold(val, "chunked")
			case asciiFold(name, "connection"):
				closeTok = closeTok || hasToken(val, "close")
				keepTok = keepTok || hasToken(val, "keep-alive")
			case isHopHeader(name):
			default:
				n0 := len(r.hdr)
				r.hdr = append(r.hdr, name...)
				v0 := len(r.hdr)
				r.hdr = append(r.hdr, val...)
				r.pairs = append(r.pairs, hdrPair{n0, v0, v0, len(r.hdr)})
			}
		}
		if !http10 && (te > 1 || te == 1 && !chunked) {
			// HTTP/1.0 has no transfer codings; HTTP/1.1 bodies know only
			// chunked, and a coding the reader cannot undo would desync
			// the connection.
			return true, fmt.Errorf("unsupported Transfer-Encoding")
		}
		r.Body = r.Body[:0]
		if r.Status == 101 {
			r.Close = true // the connection now speaks another protocol
			return true, nil
		}
		if r.Status >= 100 && r.Status < 200 {
			// Interim response: its header block just ended; the real
			// response follows on the same connection.
			if interim+1 >= maxInterim {
				return true, fmt.Errorf("%d interim 1xx responses without a final one", maxInterim)
			}
			continue
		}
		r.Close = closeTok || (http10 && !keepTok)
		switch {
		case r.Status == 204 || r.Status == 304:
			// Bodyless by definition: any Content-Length on a 304 describes
			// the representation, it does not frame bytes on this connection.
		case chunked && !http10:
			if err := r.readChunked(br); err != nil {
				return true, err
			}
		case clen >= 0:
			if clen > maxBody {
				return true, fmt.Errorf("response body %d bytes exceeds the %d bound", clen, maxBody)
			}
			if cap(r.Body) < clen {
				r.Body = make([]byte, clen)
			}
			r.Body = r.Body[:clen]
			if _, err := io.ReadFull(br, r.Body); err != nil {
				return true, err
			}
		default:
			// No framing: the body runs to connection close.
			r.Close = true
			if err := r.readToEOF(br); err != nil {
				return true, err
			}
		}
		return true, nil
	}
}

// readChunked de-chunks a body into r.Body: size line, chunk bytes + CRLF,
// repeat; the zero chunk's trailers run to a blank line.
func (r *Response) readChunked(br *bufio.Reader) error {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size := trimLine(line)
		if semi := bytes.IndexByte(size, ';'); semi >= 0 {
			size = size[:semi] // chunk extensions carry nothing we use
		}
		n, ok := parseUint(size, 16)
		if !ok {
			return fmt.Errorf("malformed chunk size %q", trimLine(line))
		}
		if n == 0 {
			for { // trailers, up to a blank line that must be a full CRLF
				t, err := br.ReadSlice('\n')
				switch {
				case err != nil:
					return err
				case string(t) == "\r\n":
					return nil
				case len(t) == 1:
					return fmt.Errorf("chunked body ends in a bare LF")
				}
				if _, _, ok := splitHeader(trimLine(t)); !ok {
					return fmt.Errorf("malformed trailer line %q", trimLine(t))
				}
			}
		}
		if len(r.Body)+n > maxBody {
			return fmt.Errorf("chunked body exceeds the %d bound", maxBody)
		}
		off := len(r.Body)
		if cap(r.Body) < off+n {
			grown := make([]byte, off+n, (off+n)*2)
			copy(grown, r.Body)
			r.Body = grown
		} else {
			r.Body = r.Body[:off+n]
		}
		if _, err := io.ReadFull(br, r.Body[off:]); err != nil {
			return err
		}
		crlf, err := br.Peek(2)
		if err != nil {
			return err
		}
		if crlf[0] != '\r' || crlf[1] != '\n' {
			return fmt.Errorf("chunk of %d bytes not followed by CRLF", n)
		}
		br.Discard(2) //nolint:errcheck // the two bytes are buffered
	}
}

// readToEOF drains br into r.Body, bounded by maxBody.
func (r *Response) readToEOF(br *bufio.Reader) error {
	var chunk [8192]byte
	for {
		n, err := br.Read(chunk[:])
		r.Body = append(r.Body, chunk[:n]...)
		if len(r.Body) > maxBody {
			return fmt.Errorf("unframed body exceeds the %d bound", maxBody)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Header returns the value of the first recorded header named name (ASCII
// case-insensitive), or nil. Hop-by-hop and framing headers are never
// recorded.
func (r *Response) Header(name string) []byte {
	for _, p := range r.pairs {
		if asciiFold(r.hdr[p.n0:p.n1], name) {
			return r.hdr[p.v0:p.v1]
		}
	}
	return nil
}

// AddHeaders adds every recorded header to dst, in arrival order.
func (r *Response) AddHeaders(dst http.Header) {
	for _, p := range r.pairs {
		dst.Add(string(r.hdr[p.n0:p.n1]), string(r.hdr[p.v0:p.v1]))
	}
}

// splitHeader splits a header or trailer line (CRLF trimmed) into its name
// and OWS-trimmed value. ok is false for any line net/http refuses: no
// colon, an empty name or one with a non-token byte (a leading space, the
// obs-fold continuation that would change the previous header's value,
// among them), or a control byte other than tab in the value.
func splitHeader(h []byte) (name, val []byte, ok bool) {
	colon := bytes.IndexByte(h, ':')
	if colon <= 0 {
		return nil, nil, false
	}
	for _, c := range h[:colon] {
		if !isTokenByte(c) {
			return nil, nil, false
		}
	}
	for _, c := range h[colon+1:] {
		if c < ' ' && c != '\t' || c == 0x7f {
			return nil, nil, false
		}
	}
	return h[:colon], trimOWS(h[colon+1:]), true
}

// isTokenByte reports whether c may appear in an RFC 7230 token.
func isTokenByte(c byte) bool { return tokenBytes[c] }

var tokenBytes = func() (t [256]bool) {
	for c := range t {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c < 0x80 && c != 0 && strings.IndexByte("!#$%&'*+-.^_`|~", byte(c)) >= 0
	}
	return t
}()

// trimLine strips the CRLF (or bare LF) ReadSlice leaves on.
func trimLine(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
		if n > 1 && b[n-2] == '\r' {
			b = b[:n-2]
		}
	}
	return b
}

// trimOWS strips the optional whitespace (spaces and tabs) around a header
// value or list element.
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// hasToken reports whether the comma-separated list v holds tok (ASCII
// case-insensitive).
func hasToken(v []byte, tok string) bool {
	for len(v) > 0 {
		elem := v
		if comma := bytes.IndexByte(v, ','); comma >= 0 {
			elem, v = v[:comma], v[comma+1:]
		} else {
			v = nil
		}
		if asciiFold(trimOWS(elem), tok) {
			return true
		}
	}
	return false
}

// asciiFold reports whether b equals name ASCII-case-insensitively.
// Allocation-free.
func asciiFold(b []byte, name string) bool {
	if len(b) != len(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c, d := b[i], name[i]
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

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHopHeader(name []byte) bool {
	for _, h := range HopHeaders {
		if asciiFold(name, h) {
			return true
		}
	}
	return false
}

// parseUint parses a non-empty decimal or hexadecimal number of at most
// 15 digits, which no bound here comes near, so it cannot overflow.
func parseUint(b []byte, base int) (int, bool) {
	if len(b) == 0 || len(b) > 15 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		var d int
		switch {
		case '0' <= c && c <= '9':
			d = int(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = int(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = int(c-'A') + 10
		default:
			return 0, false
		}
		n = n*base + d
	}
	return n, true
}
