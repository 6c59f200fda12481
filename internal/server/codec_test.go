package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/obs"
)

// encodeJSON is the pooled encoder's output for v: the oracle the append
// encoders must match byte for byte.
func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRequestCodec asserts the codec's contract on one body for both
// request types: the verdict, error text and decoded struct are
// json.Decoder's with DisallowUnknownFields; exact means json.Unmarshal
// accepts the body too, with the same struct; and whatever the fast path
// accepts, both encoding/json decoders accept with the same struct.
func checkRequestCodec(t *testing.T, body []byte) {
	t.Helper()
	checkCodecType(t, body, func(b []byte, v *ScheduleRequest) (bool, error) {
		return DecodeScheduleRequest(b, v)
	}, func(b []byte, v *ScheduleRequest) bool {
		return decodeCanonical(b, reqFields{
			workload: &v.Workload, source: &v.Source, model: &v.Model,
			predictor: &v.Predictor, width: &v.Width, superblock: &v.Superblock,
		})
	})
	checkCodecType(t, body, func(b []byte, v *SimulateRequest) (bool, error) {
		return DecodeSimulateRequest(b, v)
	}, func(b []byte, v *SimulateRequest) bool {
		return decodeCanonical(b, reqFields{
			workload: &v.Workload, source: &v.Source, model: &v.Model,
			predictor: &v.Predictor, width: &v.Width,
			faultSegment: &v.FaultSegment, full: &v.Full,
		})
	})
}

func checkCodecType[T any](t *testing.T, body []byte,
	decode func([]byte, *T) (bool, error), fast func([]byte, *T) bool) {
	t.Helper()
	var strict T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	strictErr := dec.Decode(&strict)
	var lax T
	laxErr := json.Unmarshal(body, &lax)

	var got T
	exact, err := decode(body, &got)
	switch {
	case (err == nil) != (strictErr == nil):
		t.Fatalf("%T %q: codec err %v, encoding/json err %v", got, body, err, strictErr)
	case err != nil && err.Error() != strictErr.Error():
		t.Fatalf("%T %q: codec err %q, encoding/json err %q", got, body, err, strictErr)
	case err == nil && !reflect.DeepEqual(got, strict):
		t.Fatalf("%T %q: codec decoded %+v, encoding/json %+v", got, body, got, strict)
	case exact && (laxErr != nil || !reflect.DeepEqual(got, lax)):
		t.Fatalf("%T %q: exact, but json.Unmarshal gives %+v, %v", got, body, lax, laxErr)
	case err == nil && !exact && laxErr == nil:
		t.Fatalf("%T %q: not exact, but json.Unmarshal accepts it", got, body)
	}

	var f T
	if fast(body, &f) {
		if strictErr != nil || !reflect.DeepEqual(f, strict) {
			t.Fatalf("%T %q: fast path decoded %+v; json.Decoder gives %+v, %v", f, body, f, strict, strictErr)
		}
		if laxErr != nil || !reflect.DeepEqual(f, lax) {
			t.Fatalf("%T %q: fast path decoded %+v; json.Unmarshal gives %+v, %v", f, body, f, lax, laxErr)
		}
	}
}

// codecSeeds are request bodies on both sides of the fast path's edge.
var codecSeeds = []string{
	`{"workload":"cmp","model":"sentinel","width":8}`,
	`{"source":"entry:\n\tli r1, 4\n\thalt\n","model":"sentinel+stores","width":4,"superblock":false}`,
	` { "model" : "general" , "predictor" : "tage" , "width" : 0 } ` + "\n",
	`{"workload":"grep","model":"sentinel","full":true,"fault_segment":"a"}`,
	`{}`,
	`{"model":"x"} trailing`,
	`{"model":"x"}{"model":"y"}`,
	`{"model":"x","model":"y"}`,
	`{"Model":"x"}`,
	`{"MODEL":"x"}`,
	`{"model":"x","extra":1}`,
	`{"model":"\u0073entinel"}`,
	`{"model":"s\/e\"n\\t\b\f\n\r\t"}`,
	`{"model":"sentinel` + "\xff" + `"}`,
	`{"model":"sentïnel"}`,
	`{"model":"a` + "\x01" + `b"}`,
	`{"model":null,"width":null,"superblock":null}`,
	`{"width":-1}`,
	`{"width":1.0}`,
	`{"width":1e2}`,
	`{"width":08}`,
	`{"width":0}`,
	`{"width":123456789}`,
	`{"width":1234567890}`,
	`{"width":99999999999999999999}`,
	`{"width":"8"}`,
	`{"superblock":true,"full":false}`,
	`{"superblock":tru}`,
	`{"superblock":truex}`,
	`{"model":"x",}`,
	`{"model":"x"`,
	`{"model"`,
	`[{"model":"x"}]`,
	`null`,
	``,
	"\t{\"model\":\"x\"}\r\n",
	`{"model":"x"}` + "\x00",
}

func TestRequestCodec(t *testing.T) {
	for _, s := range codecSeeds {
		checkRequestCodec(t, []byte(s))
	}
	// The canonical shapes take the fast path.
	for _, s := range codecSeeds[:5] {
		var q SimulateRequest
		var sq ScheduleRequest
		sf := reqFields{workload: &sq.Workload, source: &sq.Source, model: &sq.Model,
			predictor: &sq.Predictor, width: &sq.Width, superblock: &sq.Superblock}
		qf := reqFields{workload: &q.Workload, source: &q.Source, model: &q.Model,
			predictor: &q.Predictor, width: &q.Width, faultSegment: &q.FaultSegment, full: &q.Full}
		if !decodeCanonical([]byte(s), sf) && !decodeCanonical([]byte(s), qf) {
			t.Errorf("%q: fast path refused a canonical body", s)
		}
	}
}

// randString draws from the byte classes the string encoder treats
// differently: plain ASCII, short escapes, \u00XX escapes (control bytes
// and <>&), multi-byte UTF-8, U+2028/U+2029 and invalid UTF-8.
func randString(r *rand.Rand, n int) string {
	pieces := []string{"a", "Z", " ", "\t", "\n", "\r", "\b", "\f", `"`, `\`, "/",
		"<", ">", "&", "\x00", "\x1f", "\x7f", "é", "世", "\u2028", "\u2029",
		"\xff", "\xe4\xb8", "\U0001F600", "[  3.1] ld r1, 8(r2) <spec>\n"}
	var b strings.Builder
	for range n {
		b.WriteString(pieces[r.IntN(len(pieces))])
	}
	return b.String()
}

// fillInts sets every int field of the struct v points at, arrays
// included, from r: a field added later is covered without touching this
// test.
func fillInts(r *rand.Rand, v reflect.Value) {
	for i := range v.NumField() {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(r.Int64N(1<<40) - 1<<20)
		case reflect.Array:
			for j := range f.Len() {
				f.Index(j).SetInt(r.Int64N(1 << 30))
			}
		default:
			panic("fillInts: unexpected field kind " + f.Kind().String())
		}
	}
}

func TestResponseEncodersMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	ipcs := []float64{0, math.Copysign(0, -1), 1, 0.5, 1.0 / 3, 2.75, 1e-7, 1e-6, 123456.789,
		1e20, 1e21, 5e-324, math.MaxFloat64, -1.5e-9}
	for i := range 500 {
		sr := ScheduleResponse{
			Model: randString(r, r.IntN(3)), Width: r.IntN(1 << 20),
			Blocks: r.IntN(1000), Instrs: r.IntN(100000),
			Listing: randString(r, r.IntN(60)),
		}
		if i%2 == 0 {
			sr.Predictor = randString(r, 1+r.IntN(3))
		}
		fillInts(r, reflect.ValueOf(&sr.Stats).Elem())
		checkScheduleEncoding(t, &sr)

		qr := SimulateResponse{
			Model: randString(r, r.IntN(3)), Width: r.IntN(16),
			Cycles: r.Int64(), Instrs: r.Int64N(1<<50) - 1<<40,
			IPC: ipcs[i%len(ipcs)], Stalls: r.Int64(),
		}
		if i%3 == 0 {
			qr.IPC = r.Float64() * math.Pow(10, float64(r.IntN(50)-25))
		}
		if i%2 == 1 {
			qr.Predictor = "tage"
			qr.Out = make([]int64, r.IntN(4))
			for j := range qr.Out {
				qr.Out[j] = r.Int64() - r.Int64()
			}
			qr.MemSum = randString(r, r.IntN(3))
			qr.Exceptions = r.IntN(3)
		}
		fillInts(r, reflect.ValueOf(&qr.Stats).Elem())
		checkSimulateEncoding(t, &qr)
	}
}

func checkScheduleEncoding(t testing.TB, sr *ScheduleResponse) {
	t.Helper()
	want := encodeJSON(t, sr)
	if got := appendScheduleResponse(nil, sr); !bytes.Equal(got, want) {
		t.Fatalf("schedule response %+v:\n got %q\nwant %q", sr, got, want)
	}
	if got, want := jsonStringLen([]byte(sr.Listing)), len(appendJSONString(nil, sr.Listing)); got != want {
		t.Fatalf("jsonStringLen(%q) = %d, want %d", sr.Listing, got, want)
	}
}

func checkSimulateEncoding(t testing.TB, qr *SimulateResponse) {
	t.Helper()
	want := encodeJSON(t, qr)
	got, ok := appendSimulateResponse(nil, qr)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("simulate response %+v (ok %v):\n got %q\nwant %q", qr, ok, got, want)
	}
}

func TestSimulateEncoderRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendSimulateResponse(nil, &SimulateResponse{IPC: f}); ok {
			t.Errorf("IPC %v encoded; encoding/json refuses it", f)
		}
	}
}

// FuzzRequestCodec checks the request codec against encoding/json on every
// input (see checkRequestCodec). The seeds are codecSeeds and the committed
// corpus in testdata/fuzz/FuzzRequestCodec.
func FuzzRequestCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkRequestCodec)
}

// FuzzResponseEncoders checks the append encoders against the pooled
// encoder, with the input as listing, model, predictor and checksum text
// and n spread over the numeric fields.
func FuzzResponseEncoders(f *testing.F) {
	f.Add("entry:\n  [  0.0] li r1, 4096\n  [  1.2] ld r5, 0(r1) <spec>\n", uint64(7))
	f.Add("<b>&amp;</b> caf\u00e9 \u2028\u2029 \xff\xfe \x00\x1f\x7f \"q\" \\", uint64(1<<40+3))
	f.Fuzz(func(t *testing.T, text string, n uint64) {
		sr := ScheduleResponse{Model: text[:len(text)/4], Width: int(n % 64),
			Blocks: int(n >> 8 % 1000), Instrs: int(n >> 16 % 100000), Listing: text,
			Stats: core.Stats{Speculative: int(n % 97), ForcedIssues: int(n % 3)}}
		if n%2 == 0 {
			sr.Predictor = text[len(text)/2:]
		}
		checkScheduleEncoding(t, &sr)
		qr := SimulateResponse{Model: text, Width: int(n % 16), Cycles: int64(n >> 1),
			Instrs: int64(n >> 3), IPC: float64(n%100000) / float64(1+n%977),
			Stats: obs.SimStats{SpecOps: int64(n % 1000)}, MemSum: text[len(text)/3:]}
		if n%3 == 0 {
			qr.Out = []int64{int64(n), -int64(n >> 5)}
		}
		qr.Stats.OpMix[n%uint64(len(qr.Stats.OpMix))] = int64(n >> 7)
		checkSimulateEncoding(t, &qr)
	})
}
