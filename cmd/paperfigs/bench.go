package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/fingerprint"
	"sentinel/internal/fleet"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/server"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// benchRecord is one benchmark measurement in the BENCH_*.json files CI
// gates on: scripts/benchgate.py compares ns_per_op, the median of the
// row's samples, against the committed baseline and fails the build on a
// >20% regression. MinNs and MaxNs are the fastest and slowest samples.
type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MinNs       float64 `json:"min_ns"`
	MaxNs       float64 `json:"max_ns"`
	Samples     int     `json:"samples"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iters       int     `json:"iters"`
}

// benchSamples is the number of testing.Benchmark runs behind each row.
const benchSamples = 5

// measure runs fn benchSamples times and records the median sample, with
// the fastest and slowest ns/op beside it: one sample per row let a single
// slow or lucky second decide the gate.
func measure(name string, fn func(b *testing.B)) benchRecord {
	var recs [benchSamples]benchRecord
	for i := range recs {
		r := testing.Benchmark(fn)
		recs[i] = benchRecord{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iters:       r.N,
		}
	}
	sort.Slice(recs[:], func(i, j int) bool { return recs[i].NsPerOp < recs[j].NsPerOp })
	med := recs[benchSamples/2]
	med.MinNs, med.MaxNs = recs[0].NsPerOp, recs[benchSamples-1].NsPerOp
	med.Samples = benchSamples
	return med
}

// benchFormed builds, profiles and forms one workload kernel — everything
// upstream of the scheduler, excluded from the measured region.
func benchFormed(name string) (*prog.Program, *mem.Memory, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("benchjson: unknown workload %q", name)
	}
	p, m := w.Build()
	p.Layout()
	ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
	if err != nil {
		return nil, nil, err
	}
	f := superblock.Form(p, ref.Profile, superblock.Options{})
	f.Layout()
	return f, m, nil
}

// discardWriter is the minimal ResponseWriter for handler-path benchmarks:
// preallocated header, discarded body, remembered status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// benchServe measures the warm serving hot path — the steady state of a
// long-lived sentineld, where every repeat request is a response-byte cache
// hit — by driving the handler in-process with a reused request object.
func benchServe() ([]benchRecord, error) {
	simBody := []byte(`{"workload":"cmp","model":"sentinel+stores","width":8}`)
	// Two dedicated servers for the observability-overhead rows: the flight
	// recorder armed but effectively never sampling (steady-state production),
	// and tail-sampling 1 in 16 (the recommended diagnostic rate).
	armed := server.New(server.Config{Workers: 1, Recorder: obs.NewRecorder(
		obs.RecorderConfig{Entries: 256, Slow: time.Hour, Every: 1 << 30})})
	sampled := server.New(server.Config{Workers: 1, Recorder: obs.NewRecorder(
		obs.RecorderConfig{Entries: 256, Slow: time.Hour, Every: 16})})
	srv := server.New(server.Config{Workers: 1})
	cases := []struct {
		name, method, target string
		body                 []byte
		srv                  *server.Server
	}{
		{"ServeSimulate/warm", http.MethodPost, "/v1/simulate", simBody, srv},
		{"ServeSimulate/warm-recorder", http.MethodPost, "/v1/simulate", simBody, armed},
		{"ServeSimulate/warm-sampled16", http.MethodPost, "/v1/simulate", simBody, sampled},
		{"ServeSchedule/warm", http.MethodPost, "/v1/schedule", simBody, srv},
		{"ServeFigures/fig4", http.MethodGet, "/v1/figures?section=fig4", nil, srv},
	}
	var recs []benchRecord
	for _, c := range cases {
		h := c.srv.Handler()
		req, err := http.NewRequest(c.method, "http://bench"+c.target, nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		// The serving fast path consumes and replaces r.Body, so a reused
		// request needs its body reattached (and rewound) every iteration.
		rb := &reusableBody{}
		attach := func() {
			if c.body != nil {
				rb.Reset(c.body)
				req.Body = rb
				req.ContentLength = int64(len(c.body))
			}
		}
		w := &discardWriter{h: make(http.Header, 4)}
		attach()
		h.ServeHTTP(w, req) // warm: populate every cache under the endpoint
		if w.status != 0 && w.status != http.StatusOK {
			return nil, fmt.Errorf("benchjson: warm %s %s = %d", c.method, c.target, w.status)
		}
		var bad int
		rec := measure(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.status = 0
				attach()
				h.ServeHTTP(w, req)
				if w.status != 0 && w.status != http.StatusOK {
					bad = w.status
					b.FailNow()
				}
			}
		})
		if bad != 0 {
			return nil, fmt.Errorf("benchjson: %s returned status %d mid-benchmark", c.name, bad)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// reusableBody is a rewindable no-op-Close request body for the reused
// benchmark request above.
type reusableBody struct{ bytes.Reader }

func (b *reusableBody) Close() error { return nil }

// benchServeBatch measures POST /v1/batch end to end (decode, per-element
// cache probe, fan-out, stream framing) at 64 elements — ns_per_op is per
// batch, so divide by 64 to compare against the single-request rows:
//
//	warm64:  every element a response-byte cache hit, the batched analogue
//	         of ServeSimulate/warm
//	cold64:  cache disabled, every element re-executes through the handler
//	         against warm artifacts — the amortization target
//	mixed:   32 warm hits interleaved with 32 full simulations (full runs
//	         are never cached), the realistic mixed frame
func benchServeBatch() ([]benchRecord, error) {
	item := func(body string) string { return `{"request":` + body + `}` }
	warmBody := item(`{"workload":"cmp","model":"sentinel+stores","width":8}`)
	var warm64, cold64, mixed []string
	for i := 0; i < 64; i++ {
		name := []string{"cmp", "wc", "grep", "eqntott"}[i%4]
		warm64 = append(warm64, warmBody)
		cold64 = append(cold64, item(fmt.Sprintf(
			`{"workload":%q,"model":"sentinel+stores","width":8}`, name)))
		if i%2 == 0 {
			mixed = append(mixed, warmBody)
		} else {
			mixed = append(mixed, item(fmt.Sprintf(
				`{"workload":%q,"model":"sentinel+stores","width":8,"full":true}`, name)))
		}
	}
	frame := func(items []string) []byte {
		return []byte("[" + strings.Join(items, ",") + "]")
	}
	cached := server.New(server.Config{Workers: 1})
	uncached := server.New(server.Config{Workers: 1, RespCacheEntries: -1})
	cases := []struct {
		name string
		body []byte
		srv  *server.Server
	}{
		{"ServeBatch/warm64", frame(warm64), cached},
		{"ServeBatch/cold64", frame(cold64), uncached},
		{"ServeBatch/mixed", frame(mixed), cached},
	}
	var recs []benchRecord
	for _, c := range cases {
		h := c.srv.Handler()
		req, err := http.NewRequest(http.MethodPost, "http://bench/v1/batch", nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		rb := &reusableBody{}
		attach := func() {
			rb.Reset(c.body)
			req.Body = rb
			req.ContentLength = int64(len(c.body))
		}
		w := &discardWriter{h: make(http.Header, 4)}
		attach()
		h.ServeHTTP(w, req) // warm artifacts (and, where enabled, the cache)
		// A streamed batch never calls WriteHeader explicitly, so 0 is the
		// implicit 200 here, as in benchServe.
		if w.status != 0 && w.status != http.StatusOK {
			return nil, fmt.Errorf("benchjson: warm %s = %d", c.name, w.status)
		}
		var bad int
		rec := measure(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.status = 0
				attach()
				h.ServeHTTP(w, req)
				if w.status != 0 && w.status != http.StatusOK {
					bad = w.status
					b.FailNow()
				}
			}
		})
		if bad != 0 {
			return nil, fmt.Errorf("benchjson: %s returned status %d mid-benchmark", c.name, bad)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// benchFleetRoute measures the router's per-request routing decision —
// count-min sketch touch, hot check, consistent-hash lookup — the fixed
// overhead sentinelfront adds in front of every proxied request. It must
// stay alloc-free and three orders of magnitude under the serve rows.
func benchFleetRoute() (benchRecord, error) {
	rt, err := fleet.New(fleet.Config{
		Backends:      []string{"a:1", "b:2", "c:3"},
		ProbeInterval: -1, // no prober: the decision, not the health plane
	})
	if err != nil {
		return benchRecord{}, err
	}
	defer rt.Close()
	keys := make([]fingerprint.Key, 1024)
	for i := range keys {
		keys[i] = fingerprint.RawRequest("/v1/simulate", "",
			[]byte(fmt.Sprintf("bench-key-%d", i)))
	}
	var bad bool
	rec := measure("FleetRoute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			addr, _ := rt.Route(keys[i&1023])
			if addr == "" {
				bad = true
				b.FailNow()
			}
		}
	})
	if bad {
		return benchRecord{}, fmt.Errorf("benchjson: FleetRoute found no eligible backend")
	}
	return rec, nil
}

// benchFleetServe measures the router's two serving paths over one live
// in-process backend on a real TCP listener:
//
//	FleetServeWarm:  a raw-lane front-cache hit — slurp, fingerprint, one
//	                 shard lookup, one Write, no backend traffic. Benchgate
//	                 pins it at <= 4 allocs/op (--max-allocs).
//	FleetProxyMiss:  the same request with caching disabled, so every serve
//	                 crosses the raw pooled-connection HTTP/1.1 hop to a
//	                 warm backend — the per-request cost of the cold path.
func benchFleetServe() ([]benchRecord, error) {
	backend := server.New(server.Config{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: backend.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck
	defer httpSrv.Close()

	body := []byte(`{"workload":"cmp","model":"sentinel+stores","width":8}`)
	cases := []struct {
		name    string
		entries int // RespCacheEntries: 0 = default cache on, -1 = off
	}{
		{"FleetServeWarm", 0},
		{"FleetProxyMiss", -1},
	}
	var recs []benchRecord
	for _, c := range cases {
		rt, err := fleet.New(fleet.Config{
			Backends:         []string{ln.Addr().String()},
			ProbeInterval:    -1, // static health: the serve path, not the prober
			RespCacheEntries: c.entries,
		})
		if err != nil {
			return nil, err
		}
		h := rt.Handler()
		req, err := http.NewRequest(http.MethodPost, "http://bench/v1/simulate", nil)
		if err != nil {
			rt.Close()
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		rb := &reusableBody{}
		attach := func() {
			rb.Reset(body)
			req.Body = rb
			req.ContentLength = int64(len(body))
		}
		w := &discardWriter{h: make(http.Header, 8)}
		attach()
		h.ServeHTTP(w, req) // prime: fills the front cache when enabled
		if w.status != 0 && w.status != http.StatusOK {
			rt.Close()
			return nil, fmt.Errorf("benchjson: warm %s = %d", c.name, w.status)
		}
		var bad int
		rec := measure(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(w.h) // the miss relay Adds headers; a reused map must not accumulate
				w.status = 0
				attach()
				h.ServeHTTP(w, req)
				if w.status != 0 && w.status != http.StatusOK {
					bad = w.status
					b.FailNow()
				}
			}
		})
		rt.Close()
		if bad != 0 {
			return nil, fmt.Errorf("benchjson: %s returned status %d mid-benchmark", c.name, bad)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// benchListing keeps the measured FormatScheduled call from being optimized
// away.
var benchListing string

// benchSim measures sim.Run of each benchmark kernel scheduled for md, one
// row per kernel named prefix/kernel. The index and, for a predicting
// frontend, the predictor are built once outside the measured loop, as a
// schedule cache would; memory cloning is inside (every real measurement
// pays it) but is O(segments), not O(cycles).
func benchSim(prefix string, md machine.Desc) ([]benchRecord, error) {
	var recs []benchRecord
	for _, name := range []string{"nasa7", "tomcatv", "doduc", "wc"} {
		f, m, err := benchFormed(name)
		if err != nil {
			return nil, err
		}
		sched, _, err := core.Schedule(f, md.CompileView())
		if err != nil {
			return nil, err
		}
		opts := sim.Options{Index: sim.NewProgIndex(sched)}
		if md.Predictor != machine.PredPerfect {
			opts.Pred = sim.NewPredictor(md, opts.Index)
		}
		var serr error
		rec := measure(prefix+"/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sched, md, m.Clone(), opts); err != nil {
					serr = err
					b.FailNow()
				}
			}
		})
		if serr != nil {
			return nil, serr
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// writeBenchJSON measures the two dense-index hot paths — list scheduling
// and the simulator inner loop — on the kernels with the largest superblocks
// and writes BENCH_schedule.json and BENCH_sim.json into dir. The files are
// the perf trajectory of the repo: CI regenerates them and gates merges on
// ns_per_op regressions against the committed baselines.
func writeBenchJSON(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	var schedRecs []benchRecord
	for _, name := range []string{"nasa7", "tomcatv", "doduc", "espresso", "cmp"} {
		md := machine.Base(8, machine.SentinelStores)
		f, _, err := benchFormed(name)
		if err != nil {
			return err
		}
		var serr error
		rec := measure("ScheduleBlock/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Schedule(f, md); err != nil {
					serr = err
					b.FailNow()
				}
			}
		})
		if serr != nil {
			return serr
		}
		schedRecs = append(schedRecs, rec)
	}
	{
		md := machine.Base(8, machine.Sentinel).WithRecovery()
		f, _, err := benchFormed("nasa7")
		if err != nil {
			return err
		}
		var serr error
		rec := measure("ScheduleRecovery/nasa7", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Schedule(f, md); err != nil {
					serr = err
					b.FailNow()
				}
			}
		})
		if serr != nil {
			return serr
		}
		schedRecs = append(schedRecs, rec)
	}
	{
		// The listing a /v1/schedule response carries, of the largest
		// kernel's schedule: one presized buffer and its string.
		f, _, err := benchFormed("nasa7")
		if err != nil {
			return err
		}
		sched, _, err := core.Schedule(f, machine.Base(8, machine.SentinelStores))
		if err != nil {
			return err
		}
		schedRecs = append(schedRecs, measure("FormatScheduled/nasa7", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchListing = asm.FormatScheduled(sched)
			}
		}))
	}

	// The simulator inner loop on the kernels with the largest superblocks
	// plus wc (the longest dynamic run), under sentinel + speculative stores
	// with the perfect and the TAGE frontend — the delta is the pure
	// frontend cost, gated so frontend work never creeps into the classic
	// inner loop — and under boosting, whose shadow register files are the
	// other per-branch cost.
	var simRecs []benchRecord
	for _, row := range []struct {
		prefix string
		md     machine.Desc
	}{
		{"SimRun", machine.Base(8, machine.SentinelStores)},
		{"SimRunTAGE", machine.Base(8, machine.SentinelStores).WithPredictor(machine.PredTAGE)},
		{"SimRunBoost", machine.Base(8, machine.Boosting)},
	} {
		recs, err := benchSim(row.prefix, row.md)
		if err != nil {
			return err
		}
		simRecs = append(simRecs, recs...)
	}

	serveRecs, err := benchServe()
	if err != nil {
		return err
	}
	batchRecs, err := benchServeBatch()
	if err != nil {
		return err
	}
	serveRecs = append(serveRecs, batchRecs...)
	fleetRec, err := benchFleetRoute()
	if err != nil {
		return err
	}
	serveRecs = append(serveRecs, fleetRec)
	fleetServeRecs, err := benchFleetServe()
	if err != nil {
		return err
	}
	serveRecs = append(serveRecs, fleetServeRecs...)

	for _, f := range []struct {
		name string
		recs []benchRecord
	}{
		{"BENCH_schedule.json", schedRecs},
		{"BENCH_sim.json", simRecs},
		{"BENCH_serve.json", serveRecs},
	} {
		data, err := json.MarshalIndent(f.recs, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
