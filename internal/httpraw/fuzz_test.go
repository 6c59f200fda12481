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
// keep-alive verdict. The seeds are the committed corpus in
// testdata/fuzz/FuzzReadRawResponse.
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
	})
}
