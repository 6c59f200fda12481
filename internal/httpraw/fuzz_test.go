package httpraw

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"testing"
)

// oracleRead reads one final response with net/http, skipping interim
// responses the way Read does: every 1xx but 101, at most maxInterim of
// them. close is net/http's keep-alive verdict; a 101 hands the connection
// to another protocol, so it never carries another HTTP exchange.
func oracleRead(data []byte) (status int, body []byte, close bool, err error) {
	br := bufio.NewReader(bytes.NewReader(data))
	req := &http.Request{Method: http.MethodPost}
	for interim := 0; ; interim++ {
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			return 0, nil, false, err
		}
		if resp.StatusCode >= 100 && resp.StatusCode < 200 && resp.StatusCode != 101 {
			if interim+1 >= maxInterim {
				return 0, nil, false, io.ErrUnexpectedEOF
			}
			continue
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, nil, false, err
		}
		return resp.StatusCode, body, resp.Close || resp.StatusCode == 101, nil
	}
}

// FuzzReadRawResponse checks Read against net/http's http.ReadResponse.
// Read must never panic or hang; whatever it accepts, net/http must accept
// too, reading its body to the end, with the same status, body bytes and
// keep-alive verdict. The streamed read of an accepted response —
// ReadHead, then NextChunk up to the last chunk for a chunked body — must
// see the same head, its chunks concatenating to Read's body. The seeds are the
// committed corpus in testdata/fuzz/FuzzReadRawResponse.
func FuzzReadRawResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Response
		_, err := r.Read(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		status, body, close, oerr := oracleRead(data)
		if oerr != nil {
			t.Fatalf("input %q: raw accepts (status %d, body %q); net/http: %v", data, r.Status, r.Body, oerr)
		}
		if r.Status != status || !bytes.Equal(r.Body, body) || r.Close != close {
			t.Fatalf("input %q:\nraw      status %d close %v body %q\nnet/http status %d close %v body %q",
				data, r.Status, r.Close, r.Body, status, close, body)
		}

		var s Response
		br := bufio.NewReader(bytes.NewReader(data))
		if _, err := s.ReadHead(br); err != nil {
			t.Fatalf("input %q: Read accepts, ReadHead fails: %v", data, err)
		}
		var streamed []byte
		if s.Chunked() {
			for last := false; !last; {
				var err error
				if last, err = s.NextChunk(br); err != nil {
					t.Fatalf("input %q: Read accepts, NextChunk fails after %q: %v", data, streamed, err)
				}
				streamed = append(streamed, s.Body...)
			}
		} else if err := s.ReadBody(br); err != nil {
			t.Fatalf("input %q: Read accepts, ReadBody fails: %v", data, err)
		} else {
			streamed = s.Body
		}
		if s.Status != r.Status || s.Close != r.Close || !bytes.Equal(streamed, r.Body) {
			t.Fatalf("input %q:\nRead     status %d close %v body %q\nstreamed status %d close %v body %q",
				data, r.Status, r.Close, r.Body, s.Status, s.Close, streamed)
		}
	})
}
