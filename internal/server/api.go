package server

// The wire types and typed error vocabulary of the v1 HTTP/JSON API.
//
// Every error response carries a machine-readable kind so clients can
// distinguish a bad program (assembly_error), a bad request, an
// architecturally signalled sentinel exception (sentinel_exception, with
// the excepting PC), an expired deadline (timeout), and the two admission
// outcomes (overload, draining). Plain 500s are reserved for genuine
// internal failures; a simulated program trapping is a client-visible
// result, never a server error.

import (
	"errors"
	"fmt"
	"net/http"

	"sentinel/internal/core"
	"sentinel/internal/obs"
)

// ProgramSpec names the program a request operates on: a built-in workload
// kernel by name, or MIR assembly source submitted inline (exactly one must
// be set).
type ProgramSpec struct {
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`
}

// ScheduleRequest asks the compile pipeline to assemble (or fetch) the
// program, form superblocks, and schedule it for one machine configuration.
type ScheduleRequest struct {
	ProgramSpec
	// Model is the speculation model: restricted, general, sentinel,
	// sentinel+stores, boosting.
	Model string `json:"model"`
	// Width is the issue width (default 8).
	Width int `json:"width,omitempty"`
	// Predictor is the branch-prediction frontend: perfect (default),
	// static, tage. The scheduler never consults it — it is accepted here so
	// one request shape covers both endpoints — but it must still be a known
	// name.
	Predictor string `json:"predictor,omitempty"`
	// Superblock disables profile-driven superblock formation when set to
	// false; nil/true means form (the default pipeline).
	Superblock *bool `json:"superblock,omitempty"`
}

// ScheduleResponse is the scheduled program and its compile statistics.
type ScheduleResponse struct {
	Model string `json:"model"`
	Width int    `json:"width"`
	// Predictor echoes the resolved non-default frontend ("" when perfect,
	// keeping classic response bytes unchanged).
	Predictor string     `json:"predictor,omitempty"`
	Blocks    int        `json:"blocks"`
	Instrs    int        `json:"instrs"`
	Stats     core.Stats `json:"stats"`
	// Listing is the scheduled program in assembler syntax with cycle/slot
	// annotations.
	Listing string `json:"listing"`
}

// SimulateRequest runs a program on the cycle simulator.
type SimulateRequest struct {
	ProgramSpec
	Model string `json:"model"`
	Width int    `json:"width,omitempty"`
	// Predictor selects the branch-prediction frontend: perfect (default,
	// the paper's oracle), static (backward-taken/forward-not-taken), or
	// tage. Non-perfect frontends add mispredict redirects and fetch
	// throttling to the timing; architectural results are unchanged.
	Predictor string `json:"predictor,omitempty"`
	// FaultSegment, when set, pages out the named memory segment before the
	// run, so the first access to it raises a page fault — the serving
	// mirror of the fault-injection study. The run is uncached and
	// unverified; a signalled exception comes back as a structured 422.
	FaultSegment string `json:"fault_segment,omitempty"`
	// Full forces an uncached full simulation whose response includes the
	// program output and memory checksum. The default (workload, no fault)
	// path serves the runner's verified cell cache, which coalesces
	// identical concurrent requests and answers repeats without simulating.
	Full bool `json:"full,omitempty"`
}

// SimulateResponse reports one simulated run.
type SimulateResponse struct {
	Model string `json:"model"`
	Width int    `json:"width"`
	// Predictor echoes the resolved non-default frontend ("" when perfect,
	// keeping classic response bytes unchanged).
	Predictor string  `json:"predictor,omitempty"`
	Cycles    int64   `json:"cycles"`
	Instrs    int64   `json:"instrs"`
	IPC       float64 `json:"ipc"`
	Stalls    int64   `json:"stalls"`
	// Stats is the simulator's per-run observability breakdown.
	Stats obs.SimStats `json:"stats"`
	// Out and MemSum are only present on Full (uncached) runs; MemSum is a
	// decimal string because a uint64 checksum overflows JSON numbers.
	Out    []int64 `json:"out,omitempty"`
	MemSum string  `json:"mem_sum,omitempty"`
	// Exceptions counts signalled-and-recovered exceptions (Full runs).
	Exceptions int `json:"exceptions,omitempty"`
}

// Error kinds, the machine-readable half of every error response.
// KindTooLarge is a body over MaxBodyBytes (413); KindBadRequest any other
// body, query or machine the request cannot be decoded or resolved from.
const (
	KindBadRequest        = "bad_request"
	KindTooLarge          = "too_large"
	KindUnknownWorkload   = "unknown_workload"
	KindUnknownSegment    = "unknown_segment"
	KindAssemblyError     = "assembly_error"
	KindSentinelException = "sentinel_exception"
	KindTimeout           = "timeout"
	KindOverload          = "overload"
	KindDraining          = "draining"
	KindInternal          = "internal"
)

// APIError is an error with a fixed HTTP status and error kind; handlers
// return it (possibly wrapped) to control the response envelope.
type APIError struct {
	Status  int    `json:"-"`
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// PC is the excepting program counter of a sentinel_exception: the PC
	// recovered from the tagged register's data field, i.e. the speculative
	// instruction that actually faulted, not the sentinel that signalled.
	PC *int `json:"pc,omitempty"`
	// ExcKind is the architectural exception kind (sentinel_exception only).
	ExcKind string `json:"exc_kind,omitempty"`
}

func (e *APIError) Error() string { return e.Kind + ": " + e.Message }

func apiErrorf(status int, kind, format string, args ...any) *APIError {
	return &APIError{Status: status, Kind: kind, Message: fmt.Sprintf(format, args...)}
}

// errPanicked answers a request or batch element whose handler panicked.
var errPanicked = &APIError{Status: http.StatusInternalServerError, Kind: KindInternal,
	Message: "the request's handler panicked"}

// errorResponse is the JSON envelope of every non-2xx response.
type errorResponse struct {
	Error *APIError `json:"error"`
}

// jsonContentType is the Content-Type of every JSON response, cached and
// uncached alike.
const jsonContentType = "application/json; charset=utf-8"

// writeJSON writes v as the response body with the given status. The body
// is encoded into memory first (a pooled buffer): an unencodable value
// (e.g. a NaN that slipped into a response) must become a 500 envelope, not
// a 200 status line with a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	e := getEnc()
	if err := e.enc.Encode(v); err != nil {
		// The failing encoder is poisoned (json.Encoder latches its first
		// error); encode the fallback envelope on a fresh pair.
		e = getEnc()
		status = http.StatusInternalServerError
		ae := apiErrorf(status, KindInternal, "response encoding failed: %v", err)
		e.enc.Encode(errorResponse{Error: ae}) //nolint:errcheck // static payload always encodes
	}
	w.Header().Set("Content-Type", jsonContentType)
	w.WriteHeader(status)
	w.Write(e.buf.Bytes()) //nolint:errcheck // client gone; nothing left to do
	putEnc(e)
}

// writeBody writes a success response body. When cacheable, body itself
// goes into the response-byte cache under the canonical key — and under the
// raw-request key the v1 wrapper stashed, so a byte-identical repeat
// short-circuits before decode — and the next identical request is a single
// Write of these exact bytes. A cached body must never be written to again.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, key respKey, cacheable bool, body []byte) {
	if cacheable {
		s.resp.Put(key, body, jsonContentType)
		if rk, ok := rawKeyFrom(r.Context()); ok {
			s.resp.Put(rk, body, jsonContentType)
		}
	}
	w.Header().Set("Content-Type", jsonContentType)
	w.Write(body) //nolint:errcheck // client gone; nothing left to do
}

// writeSimulate encodes and writes a simulate response. It is appended into
// pooled scratch; a cacheable response is copied out at its exact size, the
// one copy the cache keeps. A response encoding/json would refuse (a
// non-finite IPC) gets encoding/json's 500 envelope.
func (s *Server) writeSimulate(w http.ResponseWriter, r *http.Request, key respKey, cacheable bool, resp *SimulateResponse) {
	rd := obs.RecordFrom(r.Context())
	rd.Start(obs.StageEncode, obs.ArgNone)
	defer rd.End()
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	var ok bool
	if fb.b, ok = appendSimulateResponse(fb.b[:0], resp); !ok {
		writeJSON(w, http.StatusOK, *resp)
		return
	}
	body := fb.b
	if cacheable {
		body = append([]byte(nil), body...)
	}
	s.writeBody(w, r, key, cacheable, body)
}

// writeError maps err onto the typed error envelope and writes it.
func writeError(w http.ResponseWriter, err error) *APIError {
	ae := toAPIError(err)
	writeJSON(w, ae.Status, errorResponse{Error: ae})
	return ae
}

// toAPIError classifies an arbitrary pipeline error. Context expiry maps to
// timeout, admission errors to their statuses, and anything unrecognized to
// a 500 internal.
func toAPIError(err error) *APIError {
	var ae *APIError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, errOverload):
		return apiErrorf(http.StatusTooManyRequests, KindOverload,
			"admission queue full; retry later")
	case errors.Is(err, errDraining):
		return apiErrorf(http.StatusServiceUnavailable, KindDraining,
			"server is draining")
	case isContextErr(err):
		return apiErrorf(http.StatusGatewayTimeout, KindTimeout,
			"request deadline exceeded: %v", err)
	default:
		return apiErrorf(http.StatusInternalServerError, KindInternal, "%v", err)
	}
}
