package fleet

// The request builder keeps Expect off the wire: the body is fully
// buffered, so a relayed 100-continue handshake could only provoke the
// interim responses the reader (internal/httpraw) has to skip.

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestBuildRawRequestStripsExpect: the hop never relays Expect — the body
// travels in the same write as the headers, so the handshake the header
// requests is impossible to honor and only provokes interim responses.
func TestBuildRawRequestStripsExpect(t *testing.T) {
	body := []byte(`{"workload":"cmp","model":"sentinel"}`)
	r, err := http.NewRequest(http.MethodPost, "http://x/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Expect", "100-continue")
	r.Header.Set("X-Request-Id", "rid-1")

	ps := new(rawScratch)
	buildRawRequest(ps, r, "backend:9", body, false)
	frame := string(ps.req)
	if strings.Contains(strings.ToLower(frame), "expect") {
		t.Fatalf("Expect crossed the hop:\n%s", frame)
	}
	if !strings.Contains(frame, "X-Request-Id: rid-1\r\n") {
		t.Errorf("ordinary end-to-end header missing from the frame:\n%s", frame)
	}
	if !strings.Contains(frame, "Content-Length: "+strconv.Itoa(len(body))+"\r\n") {
		t.Errorf("explicit Content-Length missing from the frame:\n%s", frame)
	}
}
