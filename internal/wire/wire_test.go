package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func reader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

func TestRequestRoundTrip(t *testing.T) {
	fr := &ReqFrame{
		TimeoutMS: 1500,
		Elems: []ReqElem{
			{Tag: 0, Op: OpSimulate, Payload: []byte(`{"workload":"cmp"}`)},
			{Tag: 7, Op: OpSchedule, Payload: []byte(`{"workload":"wc","width":2}`)},
			{Tag: 300, Op: OpSimulate, Payload: nil},
		},
	}
	data := AppendRequest(nil, fr)
	got, err := ReadRequest(reader(data), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.TimeoutMS != fr.TimeoutMS {
		t.Errorf("timeout = %d, want %d", got.TimeoutMS, fr.TimeoutMS)
	}
	if len(got.Elems) != len(fr.Elems) {
		t.Fatalf("decoded %d elements, want %d", len(got.Elems), len(fr.Elems))
	}
	for i, e := range got.Elems {
		w := fr.Elems[i]
		if e.Tag != w.Tag || e.Op != w.Op || !bytes.Equal(e.Payload, w.Payload) {
			t.Errorf("elem %d = %+v, want %+v", i, e, w)
		}
	}
}

func TestRequestKeepAliveFrames(t *testing.T) {
	fr := &ReqFrame{Elems: []ReqElem{{Tag: 1, Op: OpSimulate, Payload: []byte("x")}}}
	data := AppendRequest(AppendRequest(nil, fr), fr)
	br := reader(data)
	for i := 0; i < 2; i++ {
		if _, err := ReadRequest(br, Limits{}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := ReadRequest(br, Limits{}); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	body := []byte(`{"cycles":42}`)
	data := AppendResponseHeader(nil, 2)
	data = AppendElemHeader(data, 5, 200, len(body))
	data = append(data, body...)
	data = AppendElemHeader(data, 9, 422, 0)

	br := reader(data)
	n, err := ReadResponseHeader(br, Limits{})
	if err != nil || n != 2 {
		t.Fatalf("header = (%d, %v), want (2, nil)", n, err)
	}
	tag, status, plen, err := ReadElemHeader(br, Limits{})
	if err != nil || tag != 5 || status != 200 || plen != len(body) {
		t.Fatalf("elem 0 = (%d,%d,%d,%v)", tag, status, plen, err)
	}
	got := make([]byte, plen)
	if _, err := io.ReadFull(br, got); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("payload = %q (%v), want %q", got, err, body)
	}
	tag, status, plen, err = ReadElemHeader(br, Limits{})
	if err != nil || tag != 9 || status != 422 || plen != 0 {
		t.Fatalf("elem 1 = (%d,%d,%d,%v)", tag, status, plen, err)
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	data := AppendError(nil, ErrDraining, "server is draining")
	_, err := ReadResponseHeader(reader(data), Limits{})
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ProtocolError", err)
	}
	if pe.Code != ErrDraining || pe.Msg != "server is draining" {
		t.Errorf("got %+v", pe)
	}
}

func TestMalformedFrames(t *testing.T) {
	valid := AppendRequest(nil, &ReqFrame{Elems: []ReqElem{
		{Tag: 1, Op: OpSimulate, Payload: []byte(`{"workload":"cmp"}`)}}})
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad magic", []byte("GET / HTTP/1.1\r\n"), "bad magic"},
		{"bad version", append(append([]byte{}, Magic[:]...), 99, KindRequest), "unsupported version"},
		{"response kind to server", appendHeader(nil, KindResponse), "unexpected frame kind"},
		{"empty batch", appendUvarint(appendUvarint(appendHeader(nil, KindRequest), 0), 0), "empty batch"},
		{"truncated mid-header", valid[:3], "truncated"},
		{"truncated mid-element", valid[:len(valid)-4], "truncated"},
		{"bad opcode", func() []byte {
			// Layout: header(6) timeout(1) count(1) tag(1), then the op byte.
			d := append([]byte{}, valid...)
			d[9] = 77
			return d
		}(), "unknown opcode"},
		{"oversized count", appendUvarint(appendUvarint(appendHeader(nil, KindRequest), 0), 1<<20), "exceeds limit"},
		{"oversized varint", append(appendHeader(nil, KindRequest), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), "varint"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadRequest(reader(c.data), Limits{MaxElems: 64, MaxPayload: 1 << 16})
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ProtocolError", err)
			}
			if c.want != "" && !strings.Contains(pe.Msg, c.want) {
				t.Errorf("message %q does not contain %q", pe.Msg, c.want)
			}
		})
	}
}

func TestPayloadLimitRejectedBeforeAllocation(t *testing.T) {
	// A frame claiming a huge payload it never sends must be refused by the
	// limit check, not by an allocation attempt.
	d := appendUvarint(appendUvarint(appendHeader(nil, KindRequest), 0), 1) // timeout, count
	d = appendUvarint(d, 1)                                                 // tag
	d = append(d, OpSimulate)
	d = appendUvarint(d, maxVarint) // declared payload length, no bytes follow
	_, err := ReadRequest(reader(d), Limits{MaxPayload: 1 << 16})
	var pe *ProtocolError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "exceeds limit") {
		t.Fatalf("err = %v, want payload-limit ProtocolError", err)
	}
}

func TestCleanEOFBetweenFrames(t *testing.T) {
	if _, err := ReadRequest(reader(nil), Limits{}); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if _, err := ReadResponseHeader(reader(nil), Limits{}); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}
