package fleet

// Routing keys: the router-side half of the canonical fingerprint contract.
// For the decodable API shapes the router resolves the request exactly as
// the backend will (shared machine.Resolve + shared fingerprint
// serialization, pinned by internal/fingerprint's golden test), so textual
// variants of one logical request — field order, whitespace, defaulted
// width, model aliases — all hash to the backend whose caches that request
// already warmed. Anything the router cannot decode falls back to the
// raw-request fingerprint: still deterministic (the same bytes always land
// on the same backend, so even malformed-request error envelopes get
// response-cache affinity), just blind to textual variation.
//
// The router decodes each body once, with the backends' request codec
// (server.DecodeSimulateRequest and friends); that one result feeds both
// the route key and the front cache's canonical lane. A body the strict
// codec refuses is routed by a lax decode — no DisallowUnknownFields, no
// required-field policing beyond what the key needs. The backend remains
// the sole authority on request validity; a request the backend will
// reject still routes deterministically and comes back with the backend's
// own envelope, byte-identical to a direct call.

import (
	"encoding/binary"
	"encoding/json"
	"net/url"

	"sentinel/internal/eval"
	"sentinel/internal/fingerprint"
	"sentinel/internal/machine"
	"sentinel/internal/server"
)

// routeReq is the union of the simulate/schedule request fields the
// canonical fingerprint depends on.
type routeReq struct {
	Workload   string `json:"workload"`
	Source     string `json:"source"`
	Model      string `json:"model"`
	Predictor  string `json:"predictor"`
	Width      int    `json:"width"`
	Superblock *bool  `json:"superblock"`
}

// bodyRouteKey fingerprints a simulate (schedule false) or schedule body
// canonically. It decodes once, through the backends' request codec; a body
// the codec accepts with nothing after it (its exact verdict) decodes to
// the fields the lax decode would give, and any other body falls back to
// the lax json.Unmarshal. ok is false when the body does not decode or does
// not resolve to one canonical (program, machine) pair. strict reports that
// the backend accepts the body and answers it from this key alone — not a
// bypass op (see canonCacheKey). Fault-injected and Full simulates share
// the plain run's key on purpose: they are uncacheable, but their compile
// artifacts are the same, so owner affinity is still exactly right.
func bodyRouteKey(body []byte, schedule bool) (k fingerprint.Key, strict, ok bool) {
	var q routeReq
	decoded := false
	if schedule {
		var req server.ScheduleRequest
		if exact, err := server.DecodeScheduleRequest(body, &req); exact && err == nil {
			q = routeReq{Workload: req.Workload, Source: req.Source, Model: req.Model,
				Predictor: req.Predictor, Width: req.Width, Superblock: req.Superblock}
			decoded, strict = true, true
		}
	} else {
		var req server.SimulateRequest
		if exact, err := server.DecodeSimulateRequest(body, &req); exact && err == nil {
			q = routeReq{Workload: req.Workload, Source: req.Source, Model: req.Model,
				Predictor: req.Predictor, Width: req.Width}
			decoded, strict = true, !req.Full && req.FaultSegment == ""
		}
	}
	if !decoded && json.Unmarshal(body, &q) != nil {
		return k, false, false
	}
	if (q.Workload == "") == (q.Source == "") {
		return k, false, false // zero or both: the backend owns the error
	}
	md, err := machine.Resolve(q.Model, q.Width, q.Predictor)
	if err != nil {
		return k, false, false
	}
	if schedule {
		form := q.Superblock == nil || *q.Superblock
		return fingerprint.Schedule(q.Workload, q.Source, md, form), strict, true
	}
	return fingerprint.Simulate(q.Workload, q.Source, md), strict, true
}

// figuresRouteKey fingerprints a /v1/figures query as the endpoint does:
// its section set resolved by eval.SectionsByName, keyed by
// server.FiguresKey. An unknown section name falls back to raw-key routing;
// the backend owns the error.
func figuresRouteKey(rawQuery string) (fingerprint.Key, bool) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return fingerprint.Key{}, false
	}
	secs, _, ok := eval.SectionsByName(q["section"])
	if !ok {
		return fingerprint.Key{}, false
	}
	return server.FiguresKey(secs), true
}

// httpRouteKey fingerprints one HTTP request for routing: canonical for the
// decodable endpoint shapes, raw otherwise. /v1/batch routes whole by its
// raw bytes (the wire entry point splits batches per element; the JSON one
// keeps a frame's elements together so its stream order is one backend's
// completion order).
func httpRouteKey(method, path, rawQuery string, body []byte) fingerprint.Key {
	switch {
	case method == "POST" && (path == "/v1/simulate" || path == "/v1/schedule"):
		if k, _, ok := bodyRouteKey(body, path == "/v1/schedule"); ok {
			return k
		}
	case method == "GET" && path == "/v1/figures":
		if k, ok := figuresRouteKey(rawQuery); ok {
			return k
		}
	}
	return fingerprint.RawRequest(path, rawQuery, body)
}

// wireRouteKey fingerprints one wire batch element. The raw fallback uses
// the element's HTTP-twin path, so an undecodable payload still lands on
// the same backend whether it arrives framed or as a single POST.
func wireRouteKey(op byte, payload []byte) fingerprint.Key {
	if k, _, ok := bodyRouteKey(payload, op == opScheduleByte); ok {
		return k
	}
	if op == opScheduleByte {
		return fingerprint.RawRequest("/v1/schedule", "", payload)
	}
	return fingerprint.RawRequest("/v1/simulate", "", payload)
}

// ringHash is the point on the hash circle a key routes from: any 8 bytes
// of the sha256 fingerprint are uniform, same as the backend's shard pick.
func ringHash(k fingerprint.Key) uint64 {
	return binary.LittleEndian.Uint64(k[:8])
}
