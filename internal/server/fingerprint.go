package server

// Canonical request fingerprints for the response-byte cache. The
// serialization itself lives in internal/fingerprint, shared with the fleet
// router (internal/fleet) so the two sides can never skew: the router
// consistent-hashes the same bytes this cache keys by, which is what makes
// a backend's caches fleet-visible. This file only adapts the server's
// request types onto that shared implementation. Requests whose responses
// are not a pure function of these inputs — fault injection, explicit Full
// runs — are never fingerprinted (see handlers.go).

import (
	"sentinel/internal/eval"
	"sentinel/internal/fingerprint"
	"sentinel/internal/machine"
)

// respKey is the canonical request fingerprint keying the response cache.
type respKey = fingerprint.Key

// rawRequestKey fingerprints the request exactly as received (see
// fingerprint.RawRequest).
func rawRequestKey(path, rawQuery string, body []byte) respKey {
	return fingerprint.RawRequest(path, rawQuery, body)
}

// sourceSum hashes a request's inline source (fingerprint.SourceSum) once,
// for both its response key and its compile-cache key; nil when the
// request names a workload instead.
func sourceSum(spec *ProgramSpec) *respKey {
	if spec.Source == "" {
		return nil
	}
	sum := fingerprint.SourceSum(spec.Source)
	return &sum
}

// simulateKey fingerprints a cacheable simulate request whose source hash
// is sum. Callers must have ruled out fault injection and Full runs first.
func simulateKey(req *SimulateRequest, sum *respKey, md machine.Desc) respKey {
	return fingerprint.SimulateSum(req.Workload, sum, md)
}

// scheduleKey fingerprints a schedule request (always deterministic) whose
// source hash is sum.
func scheduleKey(req *ScheduleRequest, sum *respKey, md machine.Desc, form bool) respKey {
	return fingerprint.ScheduleSum(req.Workload, sum, md, form)
}

// FiguresKey fingerprints a figures request by its resolved section set.
// The fleet router routes /v1/figures by the same key.
func FiguresKey(secs eval.Sections) respKey {
	return fingerprint.Figures(secs.Fig4, secs.Fig5, secs.Table3, secs.Overhead,
		secs.Recovery, secs.Buffer, secs.Faults, secs.Sharing, secs.Boost,
		secs.Prediction)
}
