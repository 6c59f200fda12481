package fleet

// White-box pins for the warm path's gates: the draining sniff that the
// probe and refusal paths share (the old 64-byte limit could truncate the
// marker out of a padded envelope), and the strict canonical-key gate that
// keeps cached 200s from masking refusals.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestIsDrainingBody(t *testing.T) {
	padded := `{"error":{"message":"server is shutting down; in-flight work will finish, please retry another backend","kind":"draining"}}`
	if i := strings.Index(padded, "draining"); i < 64 {
		t.Fatalf("regression fixture puts the marker at byte %d; it must sit past the old 64-byte sniff", i)
	}
	cases := []struct {
		body string
		want bool
	}{
		{"draining\n", true},
		{"  draining\n", true},
		{`{"error":{"kind":"draining","message":"server is draining"}}` + "\n", true},
		{padded, true},
		{"ready\n", false},
		{"no ready backend\n", false},
		{`{"error":{"kind":"unavailable","message":"fleet: no ready backend"}}`, false},
		{"the pipeline is draining its stores", false}, // unquoted, not a marker
	}
	for _, tc := range cases {
		if got := isDrainingBody([]byte(tc.body)); got != tc.want {
			t.Errorf("isDrainingBody(%q) = %v, want %v", tc.body, got, tc.want)
		}
	}
}

// TestProbePaddedDrainEnvelope: the prober recognizes a draining backend
// whose refusal envelope buries the marker past 64 bytes — the regression
// the widened sniff exists for.
func TestProbePaddedDrainEnvelope(t *testing.T) {
	envelope := `{"error":{"message":"server is shutting down; in-flight work will finish, please retry another backend","kind":"draining"}}` + "\n"
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(envelope)) //nolint:errcheck
	}))
	defer stub.Close()

	rt, err := New(Config{
		Backends:      []string{strings.TrimPrefix(stub.URL, "http://")},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	deadline := time.Now().Add(3 * time.Second)
	for !rt.backends[0].draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("probe never classified the padded 503 envelope as draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Draining, not dead: the backend stays alive to finish what it holds.
	if !rt.backends[0].ready.Load() {
		t.Error("padded draining envelope marked the backend unready; draining backends stay alive")
	}
}

func TestValidTimeoutQuery(t *testing.T) {
	cases := []struct {
		q    string
		want bool
	}{
		{"", true},
		{"timeout_ms=500", true},
		{"a=b&timeout_ms=10", true},
		{"timeout_ms=0", false},
		{"timeout_ms=-3", false},
		{"timeout_ms=abc", false},
		{"section=fig4", true},
		// The backend unescapes '%' and '+' forms before its Atoi, so raw
		// values Atoi alone would misjudge must not pass: "+5" is " 5" (a
		// 400) there, "%35" is "5" (accepted, but forgoing the cache for an
		// escaped value is the safe direction).
		{"timeout_ms=+5", false},
		{"timeout_ms=%35", false},
		{"timeout_ms=5%", false},
		{"timeout_ms=1e2", false},
	}
	for _, tc := range cases {
		if got := validTimeoutQuery(tc.q); got != tc.want {
			t.Errorf("validTimeoutQuery(%q) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestCanonCacheKeyGate(t *testing.T) {
	plain := []byte(`{"workload":"cmp","model":"sentinel","width":4}`)

	k, ok := canonCacheKey(http.MethodPost, "/v1/simulate", "", plain)
	if !ok {
		t.Fatal("plain simulate body failed the canonical gate")
	}
	// When the gate passes, the cache key IS the routing key: one fingerprint
	// for affinity and memoization both.
	if want := httpRouteKey(http.MethodPost, "/v1/simulate", "", plain); k != want {
		t.Error("canonical cache key differs from the routing key for an accepted body")
	}
	reordered := []byte(`{"width":4, "model":"sentinel", "workload":"cmp"}`)
	if k2, ok := canonCacheKey(http.MethodPost, "/v1/simulate", "", reordered); !ok || k2 != k {
		t.Error("reordered fields must canonicalize to the same key")
	}

	refused := []struct {
		name         string
		method, path string
		rawQuery     string
		body         []byte
	}{
		{"unknown field", http.MethodPost, "/v1/simulate", "", []byte(`{"workload":"cmp","model":"sentinel","width":4,"bogus":1}`)},
		{"full trace", http.MethodPost, "/v1/simulate", "", []byte(`{"workload":"cmp","model":"sentinel","width":4,"full":true}`)},
		{"fault injection", http.MethodPost, "/v1/simulate", "", []byte(`{"workload":"cmp","model":"sentinel","width":4,"fault_segment":"a"}`)},
		{"malformed json", http.MethodPost, "/v1/simulate", "", []byte(`{"workload":`)},
		{"invalid timeout", http.MethodPost, "/v1/simulate", "timeout_ms=abc", plain},
		{"wrong method", http.MethodGet, "/v1/simulate", "", plain},
		{"figures post", http.MethodPost, "/v1/figures", "section=fig4", nil},
		{"unknown path", http.MethodPost, "/v1/other", "", plain},
	}
	for _, tc := range refused {
		if _, ok := canonCacheKey(tc.method, tc.path, tc.rawQuery, tc.body); ok {
			t.Errorf("%s: canonical gate accepted a body the backend would refuse (or a non-API path)", tc.name)
		}
	}

	if _, ok := canonCacheKey(http.MethodPost, "/v1/schedule", "", plain); !ok {
		t.Error("plain schedule body failed the canonical gate")
	}
	if _, ok := canonCacheKey(http.MethodGet, "/v1/figures", "section=fig4", nil); !ok {
		t.Error("figures GET failed the canonical gate")
	}
}

// TestCanonCacheKeyOneDecode pins the canonical lane to the backends'
// strictness after the router's single decode: textual variants share the
// key, and a body the backend would refuse, a bypass op, or bytes after the
// object never get it — though each still routes, canonically or raw.
func TestCanonCacheKeyOneDecode(t *testing.T) {
	const path = "/v1/simulate"
	base := []byte(`{"workload":"cmp","model":"sentinel","width":8}`)
	want, ok := canonCacheKey("POST", path, "", base)
	if !ok {
		t.Fatal("canonical body refused")
	}
	if k := httpRouteKey("POST", path, "", base); k != want {
		t.Error("route key differs from the canonical cache key")
	}
	for _, variant := range []string{
		` { "width" : 8, "model" : "sentinel", "workload" : "cmp" } ` + "\n",
		`{"workload":"cmp","model":"sentinel"}`,
		`{"workload":"cmp","model":"sentinel","width":8}`,
	} {
		if k, ok := canonCacheKey("POST", path, "", []byte(variant)); !ok || k != want {
			t.Errorf("%s: canonical key ok=%v, want the base key", variant, ok)
		}
	}
	for _, c := range []struct {
		body      string
		canonical bool // routes on the canonical key
	}{
		{`{"workload":"cmp","model":"sentinel","width":8,"extra":1}`, true},
		{`{"workload":"cmp","model":"sentinel","width":8,"full":true}`, true},
		{`{"workload":"cmp","model":"sentinel","width":8} trailing`, false},
		{`{"workload":"cmp","model":"sentinel","width":8}{}`, false},
	} {
		if _, ok := canonCacheKey("POST", path, "", []byte(c.body)); ok {
			t.Errorf("%s: canonical cache lane accepted it", c.body)
		}
		if got := httpRouteKey("POST", path, "", []byte(c.body)) == want; got != c.canonical {
			t.Errorf("%s: routes on the canonical key = %v, want %v", c.body, got, c.canonical)
		}
	}
}
