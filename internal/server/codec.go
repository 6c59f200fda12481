package server

// The request codec: one decoder for the two request bodies, shared by the
// backend and the fleet router, and append encoders for the two success
// responses.
//
// Decoding has a fast path for the canonical shape every client library
// produces — one JSON object whose keys are known fields in exact case, each
// at most once; string values of printable ASCII with short escapes only;
// non-negative decimal ints; true/false; nothing but whitespace after the
// object. Any other input (unknown or case-folded keys, duplicates, \u
// escapes, non-ASCII bytes, null, other number forms, trailing bytes) goes
// to encoding/json unchanged, so every verdict and every error text is
// encoding/json's by construction: the fast path only ever accepts inputs
// encoding/json accepts, and decodes them to the same struct.
//
// The encoders write the bytes json.Encoder produces with SetIndent("",
// "  ") and HTML escaping on (the pooled encoder in pool.go): the same
// key order, omitempty rules, escapes and float format, newline included.
// Error envelopes stay on encoding/json.

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// DecodeScheduleRequest decodes a /v1/schedule body into req, which must be
// zero, as json.Decoder with DisallowUnknownFields does (bytes after the
// object are not read). err is encoding/json's error. exact reports that
// nothing but whitespace follows the object — the condition under which
// json.Unmarshal accepts the body too.
func DecodeScheduleRequest(body []byte, req *ScheduleRequest) (exact bool, err error) {
	if decodeCanonical(body, reqFields{
		workload: &req.Workload, source: &req.Source, model: &req.Model,
		predictor: &req.Predictor, width: &req.Width, superblock: &req.Superblock,
	}) {
		return true, nil
	}
	*req = ScheduleRequest{}
	return decodeJSON(body, req)
}

// DecodeSimulateRequest is DecodeScheduleRequest for a /v1/simulate body.
func DecodeSimulateRequest(body []byte, req *SimulateRequest) (exact bool, err error) {
	if decodeCanonical(body, reqFields{
		workload: &req.Workload, source: &req.Source, model: &req.Model,
		predictor: &req.Predictor, width: &req.Width,
		faultSegment: &req.FaultSegment, full: &req.Full,
	}) {
		return true, nil
	}
	*req = SimulateRequest{}
	return decodeJSON(body, req)
}

// decodeJSON is the encoding/json path: the backend's strict Decoder.
func decodeJSON(body []byte, into any) (exact bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return false, err
	}
	return len(skipSpace(body, int(dec.InputOffset()))) == 0, nil
}

// skipSpace returns b[i:] without its leading JSON whitespace.
func skipSpace(b []byte, i int) []byte {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return b[i:]
}

// reqFields points at the fields of the request being decoded; a nil
// pointer is a key that request type does not have.
type reqFields struct {
	workload, source, model, predictor, faultSegment *string
	width                                            *int
	superblock                                       **bool
	full                                             *bool
}

// decodeCanonical decodes body into f when body has the canonical shape and
// reports whether it did. On false, f's targets may be partly written.
func decodeCanonical(body []byte, f reqFields) bool {
	b := skipSpace(body, 0)
	if len(b) == 0 || b[0] != '{' {
		return false
	}
	b = skipSpace(b, 1)
	if len(b) > 0 && b[0] == '}' {
		return len(skipSpace(b, 1)) == 0
	}
	var seen uint8
	for {
		var key []byte
		var ok bool
		if key, b, ok = scanKey(b); !ok {
			return false
		}
		b = skipSpace(b, 0)
		if len(b) == 0 || b[0] != ':' {
			return false
		}
		b = skipSpace(b, 1)
		var bit uint8
		switch string(key) {
		case "workload":
			bit, ok = 1<<0, f.workload != nil
			if ok {
				*f.workload, b, ok = scanString(b)
			}
		case "source":
			bit, ok = 1<<1, f.source != nil
			if ok {
				*f.source, b, ok = scanString(b)
			}
		case "model":
			bit, ok = 1<<2, f.model != nil
			if ok {
				*f.model, b, ok = scanString(b)
			}
		case "predictor":
			bit, ok = 1<<3, f.predictor != nil
			if ok {
				*f.predictor, b, ok = scanString(b)
			}
		case "fault_segment":
			bit, ok = 1<<4, f.faultSegment != nil
			if ok {
				*f.faultSegment, b, ok = scanString(b)
			}
		case "width":
			bit, ok = 1<<5, f.width != nil
			if ok {
				*f.width, b, ok = scanUint(b)
			}
		case "superblock":
			bit, ok = 1<<6, f.superblock != nil
			if ok {
				var v bool
				if v, b, ok = scanBool(b); ok {
					*f.superblock = &v
				}
			}
		case "full":
			bit, ok = 1<<7, f.full != nil
			if ok {
				*f.full, b, ok = scanBool(b)
			}
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false // unknown key, bad value or duplicate: encoding/json decides
		}
		seen |= bit
		b = skipSpace(b, 0)
		if len(b) == 0 {
			return false
		}
		switch b[0] {
		case ',':
			b = skipSpace(b, 1)
		case '}':
			return len(skipSpace(b, 1)) == 0
		default:
			return false
		}
	}
}

// scanKey reads an object key made of lower-case letters and underscores,
// the only bytes the known keys contain.
func scanKey(b []byte) (key, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, b, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], b[i+1:], true
		case c != '_' && (c < 'a' || c > 'z'):
			return nil, b, false
		}
	}
	return nil, b, false
}

// scanString reads a string of printable ASCII whose only escapes are the
// two-byte ones.
func scanString(b []byte) (s string, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", b, false
	}
	// First pass: find the closing quote, validate, and size the result.
	n, escapes := 0, false
	i := 1
	for ; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			break
		}
		if c < 0x20 || c >= utf8.RuneSelf {
			return "", b, false
		}
		if c == '\\' {
			i++
			if i == len(b) || unescape(b[i]) == 0 {
				return "", b, false
			}
			escapes = true
		}
		n++
	}
	if i == len(b) {
		return "", b, false
	}
	raw, rest := b[1:i], b[i+1:]
	if !escapes {
		return string(raw), rest, true
	}
	var sb strings.Builder
	sb.Grow(n)
	for len(raw) > 0 {
		j := bytes.IndexByte(raw, '\\')
		if j < 0 {
			sb.Write(raw)
			break
		}
		sb.Write(raw[:j])
		sb.WriteByte(unescape(raw[j+1]))
		raw = raw[j+2:]
	}
	return sb.String(), rest, true
}

// unescape maps the byte after a backslash to the byte it stands for, or 0
// for \u and anything invalid.
func unescape(c byte) byte {
	switch c {
	case '"', '\\', '/':
		return c
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// scanUint reads a non-negative decimal int of at most nine digits, so it
// fits an int on every platform. A fraction or exponent is left for the
// caller to refuse as an unexpected byte.
func scanUint(b []byte) (v int, rest []byte, ok bool) {
	i := 0
	for i < len(b) && i < 10 && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int(b[i]-'0')
		i++
	}
	if i == 0 || i > 9 || (b[0] == '0' && i > 1) {
		return 0, b, false
	}
	return v, b[i:], true
}

// scanBool reads true or false.
func scanBool(b []byte) (v bool, rest []byte, ok bool) {
	switch {
	case bytes.HasPrefix(b, []byte("true")):
		return true, b[4:], true
	case bytes.HasPrefix(b, []byte("false")):
		return false, b[5:], true
	}
	return false, b, false
}

// The response encoders. Each field line is written as json.Encoder's
// indenter lays it out: two spaces per level, `"key": value`, commas at
// line ends.

// scheduleTail closes a schedule response after its listing string.
const scheduleTail = "\n}\n"

// appendScheduleHead appends a schedule response up to the listing value:
// everything json.Encoder writes before the listing's opening quote.
func appendScheduleHead(dst []byte, r *ScheduleResponse) []byte {
	dst = append(dst, "{\n  \"model\": "...)
	dst = appendJSONString(dst, r.Model)
	dst = append(dst, ",\n  \"width\": "...)
	dst = strconv.AppendInt(dst, int64(r.Width), 10)
	if r.Predictor != "" {
		dst = append(dst, ",\n  \"predictor\": "...)
		dst = appendJSONString(dst, r.Predictor)
	}
	dst = append(dst, ",\n  \"blocks\": "...)
	dst = strconv.AppendInt(dst, int64(r.Blocks), 10)
	dst = append(dst, ",\n  \"instrs\": "...)
	dst = strconv.AppendInt(dst, int64(r.Instrs), 10)
	st := &r.Stats
	dst = append(dst, ",\n  \"stats\": {\n    \"Speculative\": "...)
	dst = strconv.AppendInt(dst, int64(st.Speculative), 10)
	dst = append(dst, ",\n    \"Sentinels\": "...)
	dst = strconv.AppendInt(dst, int64(st.Sentinels), 10)
	dst = append(dst, ",\n    \"Confirms\": "...)
	dst = strconv.AppendInt(dst, int64(st.Confirms), 10)
	dst = append(dst, ",\n    \"RemovedControl\": "...)
	dst = strconv.AppendInt(dst, int64(st.RemovedControl), 10)
	dst = append(dst, ",\n    \"ClearTags\": "...)
	dst = strconv.AppendInt(dst, int64(st.ClearTags), 10)
	dst = append(dst, ",\n    \"Renamed\": "...)
	dst = strconv.AppendInt(dst, int64(st.Renamed), 10)
	dst = append(dst, ",\n    \"ForcedIssues\": "...)
	dst = strconv.AppendInt(dst, int64(st.ForcedIssues), 10)
	return append(dst, "\n  },\n  \"listing\": "...)
}

// appendScheduleResponse appends r as the pooled encoder would encode it.
// The handler calls its parts directly to append the listing from the
// scheduled program; this whole form is what tests compare.
func appendScheduleResponse(dst []byte, r *ScheduleResponse) []byte {
	dst = appendScheduleHead(dst, r)
	dst = appendJSONString(dst, r.Listing)
	return append(dst, scheduleTail...)
}

// appendSimulateResponse appends r as the pooled encoder would encode it.
// ok is false when r holds a NaN or infinite IPC, which encoding/json
// refuses; the caller then takes the encoding/json error path.
func appendSimulateResponse(dst []byte, r *SimulateResponse) ([]byte, bool) {
	if math.IsNaN(r.IPC) || math.IsInf(r.IPC, 0) {
		return dst, false
	}
	dst = append(dst, "{\n  \"model\": "...)
	dst = appendJSONString(dst, r.Model)
	dst = append(dst, ",\n  \"width\": "...)
	dst = strconv.AppendInt(dst, int64(r.Width), 10)
	if r.Predictor != "" {
		dst = append(dst, ",\n  \"predictor\": "...)
		dst = appendJSONString(dst, r.Predictor)
	}
	dst = append(dst, ",\n  \"cycles\": "...)
	dst = strconv.AppendInt(dst, r.Cycles, 10)
	dst = append(dst, ",\n  \"instrs\": "...)
	dst = strconv.AppendInt(dst, r.Instrs, 10)
	dst = append(dst, ",\n  \"ipc\": "...)
	dst = appendJSONFloat(dst, r.IPC)
	dst = append(dst, ",\n  \"stalls\": "...)
	dst = strconv.AppendInt(dst, r.Stalls, 10)
	st := &r.Stats
	for i, f := range [...]struct {
		key string
		v   int64
	}{
		{"InterlockStalls", st.InterlockStalls},
		{"StoreBufferStalls", st.StoreBufferStalls},
		{"RedirectCycles", st.RedirectCycles},
		{"BranchRedirects", st.BranchRedirects},
		{"PredictedBranches", st.PredictedBranches},
		{"Mispredicts", st.Mispredicts},
		{"MispredictCycles", st.MispredictCycles},
		{"FetchThrottleStalls", st.FetchThrottleStalls},
		{"SpecOps", st.SpecOps},
		{"TagSets", st.TagSets},
		{"TagPropagations", st.TagPropagations},
		{"SentinelSignals", st.SentinelSignals},
		{"CheckFires", st.CheckFires},
		{"StoreBufferHighWater", st.StoreBufferHighWater},
		{"PCQueueHighWater", st.PCQueueHighWater},
	} {
		if i == 0 {
			dst = append(dst, ",\n  \"stats\": {\n    \""...)
		} else {
			dst = append(dst, ",\n    \""...)
		}
		dst = append(dst, f.key...)
		dst = append(dst, "\": "...)
		dst = strconv.AppendInt(dst, f.v, 10)
	}
	dst = append(dst, ",\n    \"OpMix\": ["...)
	for i, n := range st.OpMix {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n      "...)
		dst = strconv.AppendInt(dst, n, 10)
	}
	dst = append(dst, "\n    ]\n  }"...)
	if len(r.Out) > 0 {
		dst = append(dst, ",\n  \"out\": ["...)
		for i, n := range r.Out {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n    "...)
			dst = strconv.AppendInt(dst, n, 10)
		}
		dst = append(dst, "\n  ]"...)
	}
	if r.MemSum != "" {
		dst = append(dst, ",\n  \"mem_sum\": "...)
		dst = appendJSONString(dst, r.MemSum)
	}
	if r.Exceptions != 0 {
		dst = append(dst, ",\n  \"exceptions\": "...)
		dst = strconv.AppendInt(dst, int64(r.Exceptions), 10)
	}
	return append(dst, "\n}\n"...), true
}

// appendJSONFloat formats f as encoding/json does: like %g, but with the
// exponent form only below 1e-6 or from 1e21 up, and no exponent padding.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// asciiEsc says how encoding/json writes each ASCII byte with HTML
// escaping on: 0 as itself, 'u' as \u00XX, anything else as a backslash
// and that byte. Bytes from utf8.RuneSelf up decode as UTF-8.
var asciiEsc = func() (t [utf8.RuneSelf]byte) {
	for c := range t {
		if c < 0x20 || c == '<' || c == '>' || c == '&' {
			t[c] = 'u'
		}
	}
	t['"'], t['\\'] = '"', '\\'
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaped exactly as
// encoding/json escapes with HTML escaping on: short escapes for the quote,
// backslash and \b \f \n \r \t; \u00XX for other control bytes and <, >,
// &; \ufffd for each invalid UTF-8 byte; \u2028 and \u2029.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			e := asciiEsc[c]
			if e == 0 {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			if e == 'u' {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			} else {
				dst = append(dst, '\\', e)
			}
			i++
			start = i
			continue
		}
		r, size := decodeRune(s, i)
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			if size == 1 {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			}
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonStringLen is len(appendJSONString(nil, s)).
func jsonStringLen(s []byte) int {
	n := 2
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch asciiEsc[c] {
			case 0:
				n++
			case 'u':
				n += 6
			default:
				n += 2
			}
			i++
			continue
		}
		r, size := decodeRune(s, i)
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			n += 6
		} else {
			n += size
		}
		i += size
	}
	return n
}

// decodeRune decodes the rune at s[i:].
func decodeRune[S []byte | string](s S, i int) (rune, int) {
	end := i + utf8.UTFMax
	if end > len(s) {
		end = len(s)
	}
	return utf8.DecodeRuneInString(string(s[i:end]))
}
