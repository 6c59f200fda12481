package main

// The traced run: the per-layer ledger. Step 1 drives the deployed fleet
// twice — half the phase untraced, half with per-op spans and request IDs
// on — and scrapes every process's /metrics around the traced half for the
// counts. Step 2 replays a seeded sample of the same ops in-process, one at
// a time, against an in-process router and two in-process servers wired
// over loopback, recording a span around each exported call on the op's
// path. Calls the program makes internally (the router fingerprinting, the
// server simulating) cannot be spanned from outside without instrumenting
// the program, so the replay repeats each with the op's own inputs right
// after the op — a shadow span, parented to the span of the handler that
// makes that call. A span's self time is its duration minus its children's.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"sentinel/internal/alias"
	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/dataflow"
	"sentinel/internal/depgraph"
	"sentinel/internal/eval"
	"sentinel/internal/fingerprint"
	"sentinel/internal/fleet"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/server"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/wire"
	"sentinel/internal/workload"
)

// replayOps is how many ops of the seeded sample the replay runs per pass.
var replayOps = map[string]int{"warm": 2000, "hop": 600, "simulate": 200, "compile": 200}

// Span names of the two handlers whose self time is the un-decomposed
// remainder of an op, and of the wire exchange root.
const (
	spanRouter = "Router.Handler"
	spanServer = "Server.Handler"
	spanWire   = "Router.SniffWire"
)

type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the server handler wrapper records from
// the servers' goroutines, so it locks.
type tracer struct {
	mu     sync.Mutex
	on     bool
	epoch  time.Time
	spans  []span
	op     int
	root   int // the current op's root span, parent of Server.Handler
	server int // the current op's last Server.Handler span
	// pending counts Server.Handler calls still returning: the router can
	// relay a response before the backend's handler goroutine has closed
	// its span.
	pending sync.WaitGroup
}

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans), Parent: parent, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call spans fn under parent and returns the span's duration (0 when the
// tracer is off).
func (t *tracer) call(name string, parent int, fn func()) int64 {
	id := t.begin(name, parent)
	fn()
	t.end(id)
	if id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].End - t.spans[id].Start
}

// counts are the exact-repeat counts: identical on every run of one seed,
// so a difference between two commits is a behaviour change, not noise.
type counts struct {
	SimCycles, SimInstrs, SimMispredicts, SimExceptions int64
	CoreSpeculated, CoreSentinels                       int64
	FormInstrs, SourceInstrs                            int64
}

// replayFleet is the in-process fleet: a router and two servers on
// loopback listeners, each server's handler wrapped in a span.
type replayFleet struct {
	rt       *fleet.Router
	routerLn net.Listener
	servers  []*server.Server
	addrs    []string
	https    []*http.Server
	lns      []net.Listener
	wg       sync.WaitGroup
}

// newReplayFleet builds the in-process twin of the fleet cfg describes.
func newReplayFleet(t *tracer, cfg fleetConfig) (*replayFleet, error) {
	rf := &replayFleet{}
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{Workers: 1, RespCacheEntries: cfg.cacheEntries, Registry: obs.NewRegistry(),
			Recorder: obs.NewRecorder(obs.RecorderConfig{Entries: 256, Every: 16, Slow: 5 * time.Millisecond})})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rf.close()
			return nil, err
		}
		h := srv.Handler()
		hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t.mu.Lock()
			parent := t.root
			t.pending.Add(1)
			t.mu.Unlock()
			defer t.pending.Done()
			id := t.begin(spanServer, parent)
			h.ServeHTTP(w, r)
			t.end(id)
			t.mu.Lock()
			t.server = id
			t.mu.Unlock()
		})}
		rf.servers = append(rf.servers, srv)
		rf.addrs = append(rf.addrs, ln.Addr().String())
		rf.https = append(rf.https, hs)
		rf.lns = append(rf.lns, ln)
		rf.wg.Add(1)
		go func() {
			defer rf.wg.Done()
			hs.Serve(srv.SniffWire(ln)) //nolint:errcheck // returns when close shuts it down
		}()
	}
	front := cfg.cacheEntries
	if !cfg.frontCache {
		front = -1
	}
	rt, err := fleet.New(fleet.Config{Backends: rf.addrs, ProbeInterval: -1, RespCacheEntries: front,
		Registry: obs.NewRegistry(),
		Recorder: obs.NewRecorder(obs.RecorderConfig{Entries: 256, Every: 16, Slow: 5 * time.Millisecond})})
	if err != nil {
		rf.close()
		return nil, err
	}
	rf.rt = rt
	if rf.routerLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		rf.close()
		return nil, err
	}
	hs := &http.Server{Handler: rt.Handler()}
	rf.https = append(rf.https, hs)
	rf.wg.Add(1)
	go func() {
		defer rf.wg.Done()
		hs.Serve(rt.SniffWire(rf.routerLn)) //nolint:errcheck // returns when close shuts it down
	}()
	return rf, nil
}

func (rf *replayFleet) close() {
	for _, hs := range rf.https {
		hs.Close()
	}
	for _, ln := range rf.lns {
		ln.Close()
	}
	if rf.routerLn != nil {
		rf.routerLn.Close()
	}
	if rf.rt != nil {
		rf.rt.Close()
	}
	rf.wg.Wait()
}

// capture is the in-process ResponseWriter.
type capture struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (c *capture) Header() http.Header { return c.h }
func (c *capture) WriteHeader(s int) {
	if c.status == 0 {
		c.status = s
	}
}
func (c *capture) Write(p []byte) (int, error) {
	c.WriteHeader(200)
	return c.body.Write(p)
}
func (c *capture) Flush() {}

// newRequest builds an in-process request; it panics only on a malformed
// path, which the driver never constructs.
func newRequest(method, pathQuery string, body []byte, id string) *http.Request {
	req, err := http.NewRequest(method, "http://fleet"+pathQuery, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	return req
}

// serve runs one request through h in-process.
func serve(h http.Handler, req *http.Request) response {
	c := &capture{h: http.Header{}}
	h.ServeHTTP(c, req)
	if c.status == 0 {
		c.status = 200
	}
	return response{Status: c.status, Body: c.body.Bytes()}
}

// serveRoot runs req through the router as an op's root span and returns
// the response, the root span and the Server.Handler span under it.
func (rp *replayer) serveRoot(req *http.Request) (response, int, int) {
	root := rp.startRoot(spanRouter)
	r := serve(rp.rf.rt.Handler(), req)
	return r, root, rp.rootDone(root)
}

// replayer replays ops in-process.
type replayer struct {
	d         *driver
	t         *tracer
	rf        *replayFleet
	runner    *eval.Runner
	cache     *server.RespCache // shadow of a server's response cache
	scratch   []byte
	wc        *wireConn
	cnt       counts
	simRuns   map[string]int // sim.Run calls per predictor
	crossed   int            // ops whose root crossed to a backend
	fullSimNS int64          // traced time in sim.Run of full (unfaulted) runs
	roots     []int64        // root span durations, ns
}

// keyParts splits a key into method, path, raw query and body.
func keyParts(k key) (method, path, rawQuery string, body []byte) {
	if k.get {
		u, _ := url.Parse(k.path) // keys are constructed well-formed
		return "GET", u.Path, u.RawQuery, nil
	}
	return "POST", k.path, "", k.body
}

func resolve(c cell) machine.Desc {
	md, _ := machine.Resolve(c.model, c.width, c.pred) // cells are built from valid names
	return md
}

// canonKey is the router's canonical routing fingerprint for a key.
func canonKey(k key) fingerprint.Key {
	if k.get {
		var s eval.Sections
		u, _ := url.Parse(k.path)
		s.SectionByName(u.Query().Get("section"))
		return fingerprint.Figures(s.Fig4, s.Fig5, s.Table3, s.Overhead, s.Recovery,
			s.Buffer, s.Faults, s.Sharing, s.Boost, s.Prediction)
	}
	var q struct {
		Workload, Model, Predictor string
		Width                      int
	}
	json.Unmarshal(k.body, &q) //nolint:errcheck // keys are constructed well-formed
	md, _ := machine.Resolve(q.Model, q.Width, q.Predictor)
	if k.op == wireOpSchedule {
		return fingerprint.Schedule(q.Workload, "", md, true)
	}
	return fingerprint.Simulate(q.Workload, "", md)
}

// shadowKeyed spans the backend's answer to one cached key: the raw-lane
// fingerprint and the response-cache lookup.
func (rp *replayer) shadowKeyed(parent int, k key) {
	_, path, rawQuery, body := keyParts(k)
	var fk fingerprint.Key
	rp.t.call("fingerprint.RawRequestInto", parent, func() {
		fk, rp.scratch = fingerprint.RawRequestInto(rp.scratch[:0], path, rawQuery, body)
	})
	rp.t.call("RespCache.Get", parent, func() { rp.cache.Get(fk) })
}

// shadowRoute spans the router's routing decision for a canonical key.
func (rp *replayer) shadowRoute(parent int, k key) {
	var fk fingerprint.Key
	rp.t.call("fingerprint.canonical", parent, func() { fk = canonKey(k) })
	rp.t.call("Router.Route", parent, func() { rp.rf.rt.Route(fk) })
}

// rootDone closes an op's root span and returns the last Server.Handler
// span recorded under it (-1 when the op never reached a backend handler).
func (rp *replayer) rootDone(root int) int {
	rp.t.end(root)
	rp.t.pending.Wait()
	rp.t.mu.Lock()
	defer rp.t.mu.Unlock()
	srv := rp.t.server
	rp.t.server = -1
	if root >= 0 {
		rp.roots = append(rp.roots, rp.t.spans[root].End-rp.t.spans[root].Start)
		if srv >= 0 {
			rp.crossed++
		}
	}
	return srv
}

func (rp *replayer) startRoot(name string) int {
	id := rp.t.begin(name, -1)
	rp.t.mu.Lock()
	rp.t.root = id
	rp.t.server = -1
	rp.t.mu.Unlock()
	return id
}

// replay runs one op; shadow spans follow the op's own root span.
func (rp *replayer) replay(i int, o op) error {
	d := rp.d
	rp.t.mu.Lock()
	rp.t.op = i
	rp.t.mu.Unlock()
	id := fmt.Sprintf("replay-%d", i)
	switch o.kind {
	case opKey:
		k := d.keys[o.key]
		method, path, rawQuery, body := keyParts(k)
		pq := path
		if rawQuery != "" {
			pq += "?" + rawQuery
		}
		r, root, srv := rp.serveRoot(newRequest(method, pq, body, id))
		if d.expect[o.key] != nil && (r.Status != 200 || !bytes.Equal(r.Body, d.expect[o.key])) {
			return fmt.Errorf("replay %s: status %d: %w", k.path, r.Status, errBody)
		}
		if d.workload == "warm" {
			rp.t.call("fingerprint.RawRequestInto", root, func() {
				_, rp.scratch = fingerprint.RawRequestInto(rp.scratch[:0], path, rawQuery, body)
			})
			return nil
		}
		rp.shadowRoute(root, k)
		rp.shadowKeyed(srv, k)
		return nil
	case opBatchJSON:
		body := batchJSON(nil, o.batch, d.keys)
		r, root, srv := rp.serveRoot(newRequest("POST", "/v1/batch", body, id))
		if err := checkBatchStream(r.Body, o.batch, d.expect); err != nil {
			return err
		}
		var fk fingerprint.Key
		rp.t.call("fingerprint.RawRequestInto", root, func() {
			fk, rp.scratch = fingerprint.RawRequestInto(rp.scratch[:0], "/v1/batch", "", body)
		})
		rp.t.call("Router.Route", root, func() { rp.rf.rt.Route(fk) })
		for _, ki := range o.batch {
			rp.shadowKeyed(srv, d.keys[ki])
		}
		return nil
	case opBatchWire:
		elems := make([]wireElem, len(o.batch))
		for j, ki := range o.batch {
			elems[j] = wireElem{op: d.keys[ki].op, payload: d.keys[ki].body}
		}
		frame := appendWireRequest(nil, 0, elems)
		root := rp.startRoot(spanWire)
		wr, err := rp.wc.do(frame)
		rp.rootDone(root)
		if err != nil {
			return err
		}
		if err := d.check(o, response{}, wr); err != nil {
			return err
		}
		// The router decodes the frame, routes each element and re-encodes
		// per-backend frames; each backend decodes its frame and answers
		// each element from its response cache.
		fr := &wire.ReqFrame{}
		for j, e := range elems {
			fr.Elems = append(fr.Elems, wire.ReqElem{Tag: uint32(j), Op: e.op, Payload: e.payload})
		}
		for range 2 {
			rp.t.call("wire.ReadRequest", root, func() {
				wire.ReadRequest(bufio.NewReader(bytes.NewReader(frame)), wire.Limits{}) //nolint:errcheck // the frame was just encoded
			})
		}
		rp.t.call("wire.AppendRequest", root, func() { wire.AppendRequest(nil, fr) })
		for _, ki := range o.batch {
			rp.shadowRoute(root, d.keys[ki])
			rp.shadowKeyed(root, d.keys[ki])
		}
		return nil
	case opFull, opFault:
		var body []byte
		if o.kind == opFull {
			body = o.cell.body(`,"full":true`)
		} else {
			body = o.cell.body(`,"fault_segment":"` + d.oracles[o.cell.kernel].seg + `"`)
		}
		r, root, srv := rp.serveRoot(newRequest("POST", "/v1/simulate", body, id))
		var err error
		if o.kind == opFull {
			err = checkFull(r, d.oracles[o.cell.kernel])
		} else {
			err = checkFault(r)
		}
		if err != nil {
			return err
		}
		rp.shadowRoute(root, key{path: "/v1/simulate", op: wireOpSimulate, body: o.cell.body("")})
		return rp.shadowSimulate(srv, o)
	default: // opCompile
		r, root, srv := rp.serveRoot(newRequest("POST", "/v1/schedule", o.body, id))
		if err := checkSchedule(r); err != nil {
			return err
		}
		md, _ := machine.Resolve(o.model, o.width, "")
		var fk fingerprint.Key
		rp.t.call("fingerprint.canonical", root, func() { fk = fingerprint.Schedule("", o.src, md, true) })
		rp.t.call("Router.Route", root, func() { rp.rf.rt.Route(fk) })
		rp.t.call("fingerprint.RawRequestInto", srv, func() {
			fk, rp.scratch = fingerprint.RawRequestInto(rp.scratch[:0], "/v1/schedule", "", o.body)
		})
		rp.t.call("RespCache.Get", srv, func() { rp.cache.Get(fk) })
		return rp.shadowCompile(srv, o.src, md)
	}
}

// shadowSimulate repeats the backend's full-simulate path: the prepared
// artifacts from the runner's caches, then one simulation.
func (rp *replayer) shadowSimulate(parent int, o op) error {
	b, _ := workload.ByName(o.cell.kernel)
	md := resolve(o.cell)
	var p eval.Prepared
	var err error
	rp.t.call("Runner.PreparedCtx", parent, func() {
		p, err = rp.runner.PreparedCtx(context.Background(), b, md, superblock.Options{})
	})
	if err != nil {
		return err
	}
	if o.kind == opFault {
		p.Mem.Segment(rp.d.oracles[o.cell.kernel].seg).Present = false
	}
	var res *sim.Result
	ns := rp.t.call("sim.Run."+o.cell.pred, parent, func() {
		res, err = sim.Run(p.Prog, md, p.Mem, sim.Options{Index: p.Index})
	})
	rp.simRuns[o.cell.pred]++
	if o.kind == opFault {
		if _, ok := sim.Unhandled(err); !ok {
			return fmt.Errorf("replay fault %v: want a sentinel exception, got %v", o.cell, err)
		}
		rp.cnt.SimExceptions++
		return nil
	}
	if err != nil {
		return err
	}
	rp.fullSimNS += ns
	rp.cnt.SimCycles += res.Cycles
	rp.cnt.SimInstrs += res.Instrs
	rp.cnt.SimMispredicts += res.Stats.Mispredicts
	rp.cnt.SimExceptions += int64(len(res.Exceptions))
	return nil
}

// shadowCompile repeats the backend's inline-source compile: parse,
// reference run with profile, superblock formation, schedule — with the
// analyses core.Schedule runs internally spanned as its children — and
// the listing.
func (rp *replayer) shadowCompile(parent int, src string, md machine.Desc) error {
	var p *prog.Program
	var m *mem.Memory
	var err error
	rp.t.call("asm.Parse", parent, func() { p, m, err = asm.Parse(src) })
	if err != nil {
		return err
	}
	p.Layout()
	var ref *prog.Result
	rp.t.call("prog.Run", parent, func() { ref, err = prog.Run(p, m.Clone(), prog.Options{Collect: true}) })
	if err != nil {
		return err
	}
	var q *prog.Program
	rp.t.call("superblock.Form", parent, func() { q = superblock.Form(p, ref.Profile, superblock.Options{}) })
	q.Layout()
	var sched *prog.Program
	var stats core.Stats
	sid := rp.t.begin("core.Schedule", parent)
	sched, stats, err = core.Schedule(q, md)
	rp.t.end(sid)
	if err != nil {
		return err
	}
	var lv *dataflow.Liveness
	var pv *alias.Provenance
	rp.t.call("dataflow.Compute", sid, func() { lv = dataflow.Compute(q) })
	rp.t.call("alias.Analyze", sid, func() { pv = alias.Analyze(q) })
	rp.t.call("depgraph.Build", sid, func() {
		for _, b := range q.Blocks {
			depgraph.Build(b, lv, pv)
		}
	})
	rp.t.call("asm.FormatScheduled", parent, func() { asm.FormatScheduled(sched) })
	rp.cnt.CoreSpeculated += int64(stats.Speculative)
	rp.cnt.CoreSentinels += int64(stats.Sentinels)
	rp.cnt.SourceInstrs += instrCount(p)
	rp.cnt.FormInstrs += instrCount(q)
	return nil
}

func instrCount(p *prog.Program) int64 {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	return int64(n)
}

// prefillReplay warms the in-process fleet for the sample, untimed: every
// key through the router and straight to both servers (warm, hop), every
// sampled cell's schedule (simulate), and the shadow runner's artifacts.
func (rp *replayer) prefillReplay(sample []op) error {
	d := rp.d
	h := rp.rf.rt.Handler()
	seen := map[int]bool{}
	var keys []int
	for _, o := range sample {
		for _, k := range append([]int{o.key}, o.batch...) {
			if (o.kind == opKey || len(o.batch) > 0) && !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	for _, ki := range keys {
		k := d.keys[ki]
		method, path, rawQuery, body := keyParts(k)
		pq := path
		if rawQuery != "" {
			pq += "?" + rawQuery
		}
		targets := []http.Handler{h}
		for _, s := range rp.rf.servers {
			targets = append(targets, s.Handler())
		}
		for _, t := range targets {
			if r := serve(t, newRequest(method, pq, body, "")); r.Status != 200 {
				return fmt.Errorf("replay prefill %s: status %d", k.path, r.Status)
			}
		}
		fk, _ := fingerprint.RawRequestInto(nil, path, rawQuery, body)
		rp.cache.Put(fk, d.expect[ki], "application/json")
	}
	for _, o := range sample {
		if o.kind != opFull && o.kind != opFault {
			continue
		}
		if err := checkSchedule(serve(h, newRequest("POST", "/v1/schedule", o.cell.body(""), ""))); err != nil {
			return err
		}
		b, _ := workload.ByName(o.cell.kernel)
		if _, err := rp.runner.PreparedCtx(context.Background(), b, resolve(o.cell), superblock.Options{}); err != nil {
			return err
		}
	}
	return nil
}

// traced is --trace 1: the load phases, then the replay, then the ledger.
func (d *driver) traced() (*output, error) {
	f, _, err := d.setUp()
	if err != nil {
		return nil, err
	}
	streams := d.streams()
	half := d.seconds / 2
	warm := d.drive(f, streams, warmupSeconds, false)
	plain := d.drive(f, streams, half, false)
	plain.add(result{attempted: warm.attempted, failed: warm.failed, firstErr: warm.firstErr})
	before, err := scrapeFleet(f)
	if err != nil {
		f.stop()
		return nil, err
	}
	spanned := d.drive(f, streams, half, true)
	after, err := scrapeFleet(f)
	if err != nil {
		f.stop()
		return nil, err
	}
	if d.workload == "compile" {
		spanned.add(d.checkCompiled(f))
	}
	f.stop()

	s := newStream(d.workload, d.seed, 0, d.cells)
	sample := make([]op, replayOps[d.workload])
	for i := range sample {
		sample[i] = s.next()
	}
	// Two passes, each on a fresh in-process fleet so both start from the
	// same state: pass 1 warms the driver process and counts, pass 2 is
	// traced and must count the same.
	t := &tracer{epoch: time.Now(), root: -1, server: -1}
	var rp *replayer
	var passes [2]counts
	for pass := range passes {
		if rp, err = d.newReplayer(t); err != nil {
			return nil, err
		}
		err := rp.prefillReplay(sample)
		t.mu.Lock()
		t.on = pass == 1
		t.mu.Unlock()
		for i := 0; i < len(sample) && err == nil; i++ {
			if err = rp.replay(i, sample[i]); err != nil {
				err = fmt.Errorf("replay op %d: %w", i, err)
			}
		}
		rp.wc.Close()
		rp.rf.close()
		if err != nil {
			return nil, err
		}
		passes[pass] = rp.cnt
	}
	correct := passes[0] == passes[1]
	if !correct {
		fmt.Fprintf(os.Stderr, "fleetbench: counts differ between replay passes: %+v vs %+v\n", passes[0], passes[1])
	}
	if err := d.writeSpans(t.spans, spanned.spans); err != nil {
		return nil, err
	}

	res := plain
	res.add(spanned)
	if res.firstErr != nil {
		fmt.Fprintln(os.Stderr, "fleetbench: first failed check:", res.firstErr)
	}
	m := rp.ledger(t.spans, len(sample))
	for k, v := range countMetrics(before, after, spanned.timed) {
		m[k] = v
	}
	p50, err := percentile(plain.sortedLatencies(), 0.50)
	if err != nil {
		return nil, err
	}
	m["net.overhead_us"] = metric{float64(p50)/1e3 - medianInt(rp.roots)/1e3, "us"}
	m["trace.overhead_ratio"] = metric{(float64(spanned.timed) / spanned.elapsed.Seconds()) /
		(float64(plain.timed) / plain.elapsed.Seconds()), "ratio"}
	m["error_ratio"] = metric{float64(res.failed) / float64(res.attempted), "ratio"}
	fmt.Printf("workload=%s seed=%d traced: untraced ops=%d traced ops=%d replayed ops=%d counts=%+v\n",
		d.workload, d.seed, plain.timed, spanned.timed, len(sample), passes[1])
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("%-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return &output{Correct: correct && res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}, nil
}

func (d *driver) newReplayer(t *tracer) (*replayer, error) {
	rf, err := newReplayFleet(t, d.fleetConfig())
	if err != nil {
		return nil, err
	}
	return &replayer{d: d, t: t, rf: rf, runner: eval.NewRunner(1), cache: server.NewRespCache(4096),
		wc: &wireConn{addr: rf.routerLn.Addr().String()}, simRuns: map[string]int{}}, nil
}

func medianInt(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

// ledger turns the traced pass's spans into per-layer metrics: self time
// per op for each exported call, and the share of the whole-op spans those
// calls explain.
func (rp *replayer) ledger(spans []span, ops int) map[string]metric {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	dur := map[string]int64{}  // inclusive
	self := map[string]int64{} // exclusive
	var rootSelf, rootDur, handlerSelf int64
	for i, s := range spans {
		d, sf := s.End-s.Start, max(s.End-s.Start-child[i], 0)
		name := s.Name
		if strings.HasPrefix(name, "sim.Run.") {
			dur[name] += d
			name = "sim.Run"
		}
		dur[name] += d
		self[name] += sf
		switch {
		case s.Parent < 0:
			rootDur += d
			rootSelf += sf
			handlerSelf += sf
		case name == spanServer:
			handlerSelf += sf
		}
	}
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(ops) }
	m := map[string]metric{
		"fleet.serve_us":          {perOp(rootDur), "us"},
		"fleet.route_ns":          {float64(dur["Router.Route"]) / float64(ops), "ns"},
		"fingerprint.raw_us":      {perOp(dur["fingerprint.RawRequestInto"]), "us"},
		"fingerprint.canon_us":    {perOp(dur["fingerprint.canonical"]), "us"},
		"server.serve_us":         {perOp(self[spanServer]), "us"},
		"server.respcache_get_us": {perOp(dur["RespCache.Get"]), "us"},
		"wire.encode_us":          {perOp(dur["wire.AppendRequest"]), "us"},
		"wire.decode_us":          {perOp(dur["wire.ReadRequest"]), "us"},
		"eval.prepared_us":        {perOp(dur["Runner.PreparedCtx"]), "us"},
		"sim.run_us":              {perOp(dur["sim.Run"]), "us"},
		"asm.parse_us":            {perOp(dur["asm.Parse"]), "us"},
		"asm.format_us":           {perOp(dur["asm.FormatScheduled"]), "us"},
		"prog.run_us":             {perOp(dur["prog.Run"]), "us"},
		"superblock.form_us":      {perOp(dur["superblock.Form"]), "us"},
		"dataflow.compute_us":     {perOp(dur["dataflow.Compute"]), "us"},
		"alias.analyze_us":        {perOp(dur["alias.Analyze"]), "us"},
		"depgraph.build_us":       {perOp(dur["depgraph.Build"]), "us"},
		"core.schedule_us":        {perOp(dur["core.Schedule"]), "us"},
		"sim.cycles_total":        {float64(rp.cnt.SimCycles), "count"},
		"sim.exceptions":          {float64(rp.cnt.SimExceptions), "count"},
		"ledger.attributed_ratio": {ratio(rootDur-handlerSelf, rootDur), "ratio"},
	}
	m["fleet.hop_us"] = metric{0, "us"}
	if rp.crossed > 0 {
		m["fleet.hop_us"] = metric{float64(rootSelf) / 1e3 / float64(rp.crossed), "us"}
	}
	for _, p := range predictors {
		v := 0.0
		if n := rp.simRuns[p]; n > 0 {
			v = float64(dur["sim.Run."+p]) / 1e3 / float64(n)
		}
		m["sim.run_us."+p] = metric{v, "us"}
	}
	m["sim.minstr_per_s"] = metric{ratio(rp.cnt.SimInstrs*1e3, rp.fullSimNS), "Minstr/s"}
	m["sim.mispredicts_per_kinstr"] = metric{ratio(rp.cnt.SimMispredicts*1000, rp.cnt.SimInstrs), "1/kinstr"}
	compiles := 0
	if rp.d.workload == "compile" {
		compiles = ops
	}
	m["core.speculated_per_op"] = metric{ratio(rp.cnt.CoreSpeculated, int64(compiles)), "count"}
	m["core.sentinels_per_op"] = metric{ratio(rp.cnt.CoreSentinels, int64(compiles)), "count"}
	m["superblock.instrs_ratio"] = metric{ratio(rp.cnt.FormInstrs, rp.cnt.SourceInstrs), "ratio"}
	return m
}

// ratio is a/b, or 0 when b is 0 (the layer saw no work).
func ratio[T int64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// scrapeFleet reads /metrics from the router and each backend.
func scrapeFleet(f *topology) ([]map[string]float64, error) {
	var ms []map[string]float64
	for _, a := range append([]string{f.router}, f.backends...) {
		m, err := scrape(a)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// countMetrics are the /metrics deltas over the traced phase: index 0 is
// the router, the rest are backends.
func countMetrics(before, after []map[string]float64, ops int64) map[string]metric {
	delta := func(name string, from int) float64 {
		v := 0.0
		for i := from; i < len(after); i++ {
			v += after[i][name] - before[i][name]
		}
		return v
	}
	fh, fm := delta("fleet_cache_hits", 0), delta("fleet_cache_misses", 0)
	sh, sm := delta("server_respcache_hits", 1), delta("server_respcache_misses", 1)
	rh, rm := delta("runner_cache_scheds_hits", 1), delta("runner_cache_scheds_misses", 1)
	n := float64(ops)
	return map[string]metric{
		"fleet.front_hit_ratio":          {ratio(fh, fh+fm), "ratio"},
		"fleet.retries":                  {delta("fleet_retries", 0), "count"},
		"fleet.proxy_errors":             {delta("fleet_proxy_errors", 0), "count"},
		"server.respcache_hit_ratio":     {ratio(sh, sh+sm), "ratio"},
		"server.respcache_evicts_per_op": {ratio(delta("server_respcache_evicts", 1), n), "count"},
		"server.rejected":                {delta("server_rejected", 1), "count"},
		"server.batch_elements_per_op":   {ratio(delta("server_batch_elements", 1), n), "count"},
		"wire.frames":                    {delta("fleet_wire_frames", 0), "count"},
		"eval.sched_hit_ratio":           {ratio(rh, rh+rm), "ratio"},
	}
}

// writeSpans writes the replay's and the traced load phase's spans, one
// JSON object per line, once the run is over.
func (d *driver) writeSpans(replay []span, load []loadSpan) error {
	path := filepath.Join(d.outDir, fmt.Sprintf("spans-%s-%d.jsonl", d.workload, d.seed))
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range replay {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, s := range load {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return errors.New("write spans: " + err.Error())
	}
	return nil
}
