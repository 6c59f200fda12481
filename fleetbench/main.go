// Command fleetbench is the repository's end-to-end benchmark: it starts the
// deployed topology (a sentinelfront router in front of two `sentineld
// -warm -j 1` backends), drives one seeded workload through it from a
// closed loop of keep-alive connections, checks every response, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	fleetbench --workload warm --seed 1 --seconds 10 --trace 0 --bin DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer ledger instead (see NOTES.md). run.sh builds the binaries and
// this driver from source and passes --bin.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/asm"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string
	outDir   string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = report the per-layer ledger instead of end-to-end metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the sentineld and sentinelfront binaries")
	flag.StringVar(&cfg.outDir, "out", ".", "directory the span files are written to")
	flag.Parse()
	cfg.trace = trace == 1
	if !slices.Contains(workloadNames, cfg.workload) || cfg.bin == "" || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type driver struct {
	config
	keys    []key
	cells   []cell
	oracles map[string]oracle
	expect  [][]byte // warm/hop: each key's body as its owner answered directly
}

func run(cfg config) (*output, error) {
	d := &driver{config: cfg, keys: warmKeys(), cells: cells()}
	var err error
	if d.oracles, err = kernelOracles(); err != nil {
		return nil, fmt.Errorf("reference interpreter: %w", err)
	}
	d.expect = make([][]byte, len(d.keys))
	if cfg.trace {
		return d.traced()
	}
	return d.endToEnd()
}

// loadConns is the closed loop's connection count. One: on a 2-CPU
// machine a second op in flight makes the four processes (router, two
// backends, driver) contend for the CPUs, so the tail measured queueing
// and OS scheduling rather than the ops — over ten runs of hop on two
// connections the p99's quartiles were 1.7 and 4.5 ms around a 2.5 ms
// median, and warm's throughput halved in one run in ten with its p50
// unchanged.
const loadConns = 1

// setupsPerRun is how many times a run sets the fleet up; setup_s is the
// median.
const setupsPerRun = 3

// fleetConfig is the workload's fleet: the router's front cache is off for
// hop, and every response cache of the compile fleet is small enough that
// set-up reaches the eviction steady state in about a thousand compiles
// (at the default 4096 entries it takes about five thousand).
func (d *driver) fleetConfig() fleetConfig {
	cfg := fleetConfig{bin: d.bin, frontCache: d.workload != "hop"}
	if d.workload == "compile" {
		cfg.cacheEntries = 512
	}
	return cfg
}

// setUp starts a fleet and prefills it; the duration is setup_s's sample.
func (d *driver) setUp() (*topology, time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(d.fleetConfig())
	if err != nil {
		return nil, 0, err
	}
	ready := time.Since(t0)
	if err := d.prefill(f); err != nil {
		f.stop()
		return nil, 0, fmt.Errorf("prefill: %w", err)
	}
	total := time.Since(t0)
	fmt.Fprintf(os.Stderr, "fleetbench: set-up %.3fs (ready %.3fs, prefill %.3fs)\n",
		total.Seconds(), ready.Seconds(), (total - ready).Seconds())
	return f, total, nil
}

func (d *driver) endToEnd() (*output, error) {
	// The host is calibrated before the first set-up and after each one,
	// with the new fleet idle, as well as at the timed phase's window
	// boundaries.
	var setups, cals []float64
	var f *topology
	for i := 0; i <= setupsPerRun; i++ {
		cal, err := calibrate()
		if err != nil {
			if f != nil {
				f.stop()
			}
			return nil, fmt.Errorf("calibrate: %w", err)
		}
		cals = append(cals, cal)
		if i == setupsPerRun {
			break
		}
		if f != nil {
			f.stop()
		}
		var dur time.Duration
		if f, dur, err = d.setUp(); err != nil {
			return nil, err
		}
		setups = append(setups, dur.Seconds())
	}
	defer f.stop()

	streams := d.streams()
	warm := d.drive(f, streams, warmupSeconds, false)
	res := d.drive(f, streams, d.seconds, false)
	rss, err := peakRSSMB(f.pids())
	if err != nil {
		return nil, err
	}
	if d.workload == "compile" {
		res.add(d.checkCompiled(f))
	}
	res.add(result{attempted: warm.attempted, failed: warm.failed, firstErr: warm.firstErr})
	if res.firstErr != nil {
		fmt.Fprintln(os.Stderr, "fleetbench: first failed check:", res.firstErr)
	}
	if res.measErr != nil {
		return nil, res.measErr
	}
	p50, p99, err := res.latencies()
	if err != nil {
		return nil, err
	}
	tput, cpu := res.windowed()
	fmt.Fprintf(os.Stderr, "fleetbench: ops per window %v, quiet windows %v, stolen CPU %.2fs\n",
		res.windowCounts(), res.quietWindows(), float64(res.steal[len(res.steal)-1]-res.steal[0])/clkTck)
	// Measured values, and the same at the reference host speed; the
	// result line reports the latter.
	raw := map[string]metric{
		"throughput_ops_s": {tput, "1/s"},
		"latency_p50_ms":   {float64(p50) / 1e6, "ms"},
		"latency_p99_ms":   {p99 / 1e6, "ms"},
		"cpu_us_per_op":    {cpu * 1e6, "us"},
		"rss_peak_mb":      {rss, "MB"},
		"setup_s":          {median(setups), "s"},
	}
	cals = append(cals, res.calib...)
	scale := hostScale(cals)
	m := map[string]metric{}
	for name, v := range raw {
		switch name {
		case "throughput_ops_s":
			v.Value /= scale
		case "rss_peak_mb":
		default:
			v.Value *= scale
		}
		m[name] = v
	}
	errRatio := float64(res.failed) / float64(res.attempted)
	fmt.Printf("workload=%s seed=%d conns=%d timed=%.2fs ops=%d attempted=%d failed=%d setups=%vs\n",
		d.workload, d.seed, loadConns, res.elapsed.Seconds(), res.timed, res.attempted, res.failed, roundAll(setups, 3))
	fmt.Printf("host calibration: median %.4f of %v (1 = reference speed), scale %.4f\n",
		median(cals), roundAll(cals, 3), scale)
	fmt.Println("over the quiet one-second windows: throughput and cpu are medians, p99 the median over chunks of >= 2000 ops")
	fmt.Printf("%-18s %14s %14s %-4s\n", "metric", "measured", "at reference", "unit")
	for _, name := range []string{"throughput_ops_s", "latency_p50_ms", "latency_p99_ms",
		"cpu_us_per_op", "rss_peak_mb", "setup_s"} {
		fmt.Printf("%-18s %14.4f %14.4f %-4s (n=%d)\n", name, raw[name].Value, m[name].Value, m[name].Unit, res.timed)
	}
	fmt.Printf("%-18s %14.4f %-4s (%d of %d)\n", "error_ratio", errRatio, "ratio", res.failed, res.attempted)
	return &output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}, nil
}

func roundAll(xs []float64, digits int) []string {
	var s []string
	for _, x := range xs {
		s = append(s, fmt.Sprintf("%.*f", digits, x))
	}
	return s
}

func (d *driver) streams() []*stream {
	ss := make([]*stream, loadConns)
	for w := range ss {
		ss[w] = newStream(d.workload, d.seed, w, d.cells)
	}
	return ss
}

// warmupSeconds of load precede every timed phase, so connections, pools
// and the processes' heaps settle before anything is measured. Its ops
// are checked, and count into attempted and failed, but are not timed.
const warmupSeconds = 1.0

// result aggregates one timed phase (plus, for compile, its post-check).
type result struct {
	timed     int64 // ops completed inside the timed phase
	attempted int64
	failed    int64
	samples   []sample      // successful ops
	ends      []int64       // every timed op's completion, ns since the phase start
	elapsed   time.Duration // the windows' total length, pauses excluded
	// At each window boundary the load pauses (ns since the phase start,
	// from pause to resume) while the driver reads the fleet's CPU time
	// and the machine's steal counter and calibrates the host's speed.
	pauses   []int64
	resumes  []int64
	cpu      []float64 // fleet CPU seconds at each window boundary
	steal    []int64   // the machine's stolen CPU ticks at each window boundary
	calib    []float64 // the host calibration at each window boundary
	measErr  error     // reading CPU time or calibrating failed
	spans    []loadSpan
	firstErr error
}

// sample is one successful op: completion time since the phase start and
// latency, both ns.
type sample struct{ end, lat int64 }

// loadSpan is the driver's per-op span in a traced load phase.
type loadSpan struct {
	ID      string `json:"id"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (r *result) add(o result) {
	r.timed += o.timed
	r.attempted += o.attempted
	r.failed += o.failed
	r.samples = append(r.samples, o.samples...)
	r.ends = append(r.ends, o.ends...)
	r.spans = append(r.spans, o.spans...)
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// latencies returns the p50 over the quiet windows' successful ops, and
// the median of the p99s of up to five consecutive chunks (by completion
// order) of at least 2000 of those ops each — or of one chunk of them all,
// when there are fewer than 4000 — so that neither stolen CPU time nor a
// thin tail decides the p99. When the quiet windows hold fewer than 1000
// ops, the least-stolen of the other windows join them until they do. A
// chunk of fewer than 1000 ops has fewer than ten samples beyond its p99
// and is refused.
func (r *result) latencies() (p50 int64, p99 float64, err error) {
	quiet := r.quietWindows()
	counts := r.windowCounts()
	n := 0
	for w, q := range quiet {
		if q {
			n += counts[w]
		}
	}
	stolen := r.stolen()
	for n < 1000 {
		w := -1
		for v, q := range quiet {
			if !q && (w < 0 || stolen[v] < stolen[w]) {
				w = v
			}
		}
		if w < 0 {
			break
		}
		quiet[w] = true
		n += counts[w]
	}
	var ordered []sample
	for _, s := range r.samples {
		if w := r.windowOf(s.end); w < len(quiet) && quiet[w] {
			ordered = append(ordered, s)
		}
	}
	slices.SortFunc(ordered, func(a, b sample) int { return cmp.Compare(a.end, b.end) })
	lat := make([]int64, len(ordered))
	for i, s := range ordered {
		lat[i] = s.lat
	}
	slices.Sort(lat)
	if p50, err = percentile(lat, 0.50); err != nil {
		return 0, 0, err
	}
	k := min(5, max(1, len(ordered)/2000))
	var p99s []float64
	for j := 0; j < k; j++ {
		chunk := make([]int64, 0, len(ordered)/k+1)
		for _, s := range ordered[j*len(ordered)/k : (j+1)*len(ordered)/k] {
			chunk = append(chunk, s.lat)
		}
		slices.Sort(chunk)
		v, err := percentile(chunk, 0.99)
		if err != nil {
			return 0, 0, err
		}
		p99s = append(p99s, float64(v))
	}
	return p50, median(p99s), nil
}

// quietWindows marks the windows in which the hypervisor stole no more CPU
// time than in the median window, or under 5% of the machine's CPU time —
// at least half of them, and all of them on a calm machine. On a shared
// virtual machine the host can take a third of the CPUs for minutes;
// windows where it did measure the host, not the program.
func (r *result) quietWindows() []bool {
	stolen := r.stolen()
	med := median(stolen)
	quiet := make([]bool, len(stolen))
	for w, v := range stolen {
		quiet[w] = v <= max(med, 0.05*r.windowSeconds(w)*clkTck*float64(runtime.NumCPU()))
	}
	return quiet
}

// stolen returns the machine's stolen CPU ticks in each window.
func (r *result) stolen() []float64 {
	stolen := make([]float64, max(len(r.cpu)-1, 0))
	if len(r.steal) == len(r.cpu) {
		for w := range stolen {
			stolen[w] = float64(r.steal[w+1] - r.steal[w])
		}
	}
	return stolen
}

// windowOf returns the window an op that completed at end (ns since the
// phase start) belongs to: every op completes inside a window, since a
// pause waits for the op in flight.
func (r *result) windowOf(end int64) int {
	w, _ := slices.BinarySearch(r.pauses[1:], end)
	return w
}

// windowSeconds is window w's length, from the resume that opens it to the
// pause that closes it.
func (r *result) windowSeconds(w int) float64 {
	return float64(r.pauses[w+1]-r.resumes[w]) / 1e9
}

func (r *result) sortedLatencies() []int64 {
	lat := make([]int64, len(r.samples))
	for i, s := range r.samples {
		lat[i] = s.lat
	}
	slices.Sort(lat)
	return lat
}

// windowCounts counts the ops completed in each window of the phase.
func (r *result) windowCounts() []int {
	counts := make([]int, max(len(r.cpu)-1, 0))
	for _, e := range r.ends {
		if w := r.windowOf(e); w < len(counts) {
			counts[w]++
		}
	}
	return counts
}

// windowed returns the medians, over the phase's quiet windows, of ops per
// second and of fleet CPU seconds per op.
func (r *result) windowed() (tput, cpuPerOp float64) {
	quiet := r.quietWindows()
	var tputs, cpus []float64
	for w, c := range r.windowCounts() {
		if !quiet[w] {
			continue
		}
		tputs = append(tputs, float64(c)/r.windowSeconds(w))
		if c > 0 {
			cpus = append(cpus, (r.cpu[w+1]-r.cpu[w])/float64(c))
		}
	}
	return median(tputs), median(cpus)
}

// drive runs the closed loop: one worker per connection, each sending its
// stream's next op as soon as the previous one completes, until the phase
// ends. The phase is cut into one-second windows. At each window boundary
// the load pauses — the pause waits for the ops in flight — while the
// driver reads the fleet's CPU time and the machine's steal counter and
// calibrates the host's speed with the fleet idle; the pauses are not part
// of any window.
func (d *driver) drive(f *topology, streams []*stream, seconds float64, traced bool) result {
	// The driver's own garbage collection would pause the workers and take
	// CPU from the fleet mid-phase: collect before it, and during it only
	// if the heap passes 256 MiB.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))
	nwin := max(1, int(math.Round(seconds)))
	window := time.Duration(seconds * float64(time.Second) / float64(nwin))
	pids := f.pids()
	var res result
	var gate sync.RWMutex
	var done atomic.Bool
	t0 := time.Now()
	boundary := func(last bool) {
		gate.Lock()
		defer gate.Unlock()
		res.pauses = append(res.pauses, time.Since(t0).Nanoseconds())
		done.Store(last)
		c, err := cpuSeconds(pids)
		cal, calErr := calibrate()
		res.measErr = cmp.Or(res.measErr, err, calErr)
		res.cpu, res.steal = append(res.cpu, c), append(res.steal, stealTicks())
		res.calib = append(res.calib, cal)
		res.resumes = append(res.resumes, time.Since(t0).Nanoseconds())
	}
	boundary(false)
	parts := make([]result, len(streams))
	var wg sync.WaitGroup
	for w, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = d.worker(f, s, &gate, &done, traced, w, t0)
		}()
	}
	for i := 1; i <= nwin; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(res.resumes[i-1]) + window)))
		boundary(i == nwin)
	}
	wg.Wait()
	for _, p := range parts {
		res.add(p)
	}
	for w := 0; w < nwin; w++ {
		res.elapsed += time.Duration(res.pauses[w+1] - res.resumes[w])
	}
	return res
}

// worker sends s's ops on one connection until done is set. Each op —
// request, response and check — holds gate's read lock, so a window
// boundary waits for the op in flight and no op overlaps it.
func (d *driver) worker(f *topology, s *stream, gate *sync.RWMutex, done *atomic.Bool, traced bool, w int, epoch time.Time) result {
	var res result
	hc := &httpConn{addr: f.router}
	wc := &wireConn{addr: f.router}
	defer hc.Close()
	defer wc.Close()
	var req []byte
	for {
		gate.RLock()
		if done.Load() {
			gate.RUnlock()
			return res
		}
		o := s.next()
		id := ""
		if traced {
			id = fmt.Sprintf("fb-%d-%d", w, s.n)
		}
		req = d.render(req[:0], o, id)
		start := time.Now()
		var err error
		var r response
		var wr []wireResult
		if o.kind == opBatchWire {
			wr, err = wc.do(req)
		} else {
			r, err = hc.do(req)
		}
		end := time.Now()
		if err == nil {
			err = d.check(o, r, wr)
		}
		gate.RUnlock()
		res.timed++
		res.attempted++
		res.ends = append(res.ends, end.Sub(epoch).Nanoseconds())
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		res.samples = append(res.samples, sample{end: end.Sub(epoch).Nanoseconds(), lat: end.Sub(start).Nanoseconds()})
		if traced {
			res.spans = append(res.spans, loadSpan{ID: id,
				StartNS: start.Sub(epoch).Nanoseconds(), EndNS: end.Sub(epoch).Nanoseconds()})
		}
	}
}

// render serializes op o as the bytes sent on the wire.
func (d *driver) render(dst []byte, o op, id string) []byte {
	switch o.kind {
	case opKey:
		return d.keys[o.key].request(dst, id)
	case opBatchJSON:
		body := batchJSON(nil, o.batch, d.keys)
		return appendPost(dst, "/v1/batch", body, id)
	case opBatchWire:
		elems := make([]wireElem, len(o.batch))
		for i, k := range o.batch {
			elems[i] = wireElem{op: d.keys[k].op, payload: d.keys[k].body}
		}
		return appendWireRequest(dst, 0, elems)
	case opFull:
		return appendPost(dst, "/v1/simulate", o.cell.body(`,"full":true`), id)
	case opFault:
		seg := d.oracles[o.cell.kernel].seg
		return appendPost(dst, "/v1/simulate", o.cell.body(`,"fault_segment":"`+seg+`"`), id)
	default: // opCompile
		return appendPost(dst, "/v1/schedule", o.body, id)
	}
}

// check verifies one op's response.
func (d *driver) check(o op, r response, wr []wireResult) error {
	switch o.kind {
	case opKey:
		if r.Status != 200 || !bytes.Equal(r.Body, d.expect[o.key]) {
			return fmt.Errorf("%s: status %d: %w", d.keys[o.key].path, r.Status, errBody)
		}
		return nil
	case opBatchJSON:
		if r.Status != 200 {
			return fmt.Errorf("batch: status %d: %.200s", r.Status, r.Body)
		}
		return checkBatchStream(r.Body, o.batch, d.expect)
	case opBatchWire:
		if len(wr) != len(o.batch) {
			return fmt.Errorf("wire batch: %d results, want %d", len(wr), len(o.batch))
		}
		seen := make([]bool, len(o.batch))
		for _, e := range wr {
			if e.tag >= len(o.batch) || seen[e.tag] {
				return fmt.Errorf("wire batch: bad or repeated tag %d", e.tag)
			}
			seen[e.tag] = true
			if e.status != 200 || !bytes.Equal(e.payload, d.expect[o.batch[e.tag]]) {
				return fmt.Errorf("wire element %d: status %d: %w", e.tag, e.status, errBody)
			}
		}
		return nil
	case opFull:
		return checkFull(r, d.oracles[o.cell.kernel])
	case opFault:
		return checkFault(r)
	default:
		return checkSchedule(r)
	}
}

// compileChecks is how many generated programs the compile workload's
// post-check simulates against the interpreter.
const compileChecks = 24

// checkCompiled runs a seeded sample of the timed phase's programs —
// worker 0's first compileChecks — through /v1/simulate with inline source
// and checks each result against the driver's own interpreter run. It is
// untimed; its ops count into attempted and failed.
func (d *driver) checkCompiled(f *topology) result {
	var res result
	hc := &httpConn{addr: f.router}
	defer hc.Close()
	s := newStream("compile", d.seed, 0, d.cells)
	for i := 0; i < compileChecks; i++ {
		o := s.next()
		res.attempted++
		err := func() error {
			p, m, err := asm.Parse(o.src)
			if err != nil {
				return fmt.Errorf("generated program: %w", err)
			}
			want, err := refRun(p, m)
			if err != nil {
				return fmt.Errorf("generated program: %w", err)
			}
			r, err := hc.do(appendPost(nil, "/v1/simulate", sourceBody(o.src, o.model, o.width, true), ""))
			if err != nil {
				return err
			}
			return checkFull(r, want)
		}()
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		}
	}
	return res
}

// parallel runs fn(w, i) for i in [0, n) on conc workers; worker w owns
// whatever per-connection state fn keeps at index w.
func parallel(n, conc int, fn func(w, i int) error) error {
	var next atomic.Int64
	errs := make([]error, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[w] = fn(w, i); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// prefill is the workload's deterministic set-up work on a fresh fleet,
// sent on one connection per CPU whatever the workload's load uses.
func (d *driver) prefill(f *topology) error {
	conc := runtime.NumCPU()
	router := make([]*httpConn, conc)
	direct := make([][]*httpConn, conc)
	for w := range router {
		router[w] = &httpConn{addr: f.router}
		for _, b := range f.backends {
			direct[w] = append(direct[w], &httpConn{addr: b})
		}
	}
	defer func() {
		for w := range router {
			router[w].Close()
			for _, c := range direct[w] {
				c.Close()
			}
		}
	}()
	switch d.workload {
	case "warm", "hop":
		// Every key through the router, then straight to each backend: the
		// backends' bytes are the expectation every timed response is held
		// to, and both backends hold every key so a batch landing on either
		// answers from its response cache.
		// Figure sections first: they are the longest renders, and
		// starting them early keeps the prefill's makespan steady.
		order := make([]int, len(d.keys))
		for i := range order {
			order[i] = (i + 2*len(d.cells)) % len(d.keys)
		}
		return parallel(len(d.keys), conc, func(w, j int) error {
			i := order[j]
			req := d.keys[i].request(nil, "")
			r, err := router[w].do(req)
			if err != nil {
				return err
			}
			if r.Status != 200 {
				return fmt.Errorf("%s %s: status %d: %.200s", d.keys[i].path, d.keys[i].body, r.Status, r.Body)
			}
			body := slices.Clone(r.Body)
			for _, c := range direct[w] {
				rb, err := c.do(req)
				if err != nil {
					return err
				}
				if rb.Status != 200 || !bytes.Equal(rb.Body, body) {
					return fmt.Errorf("%s %s: router and %s disagree", d.keys[i].path, d.keys[i].body, c.addr)
				}
			}
			d.expect[i] = body
			return nil
		})
	case "simulate":
		// Every cell's schedule through the router, then straight to each
		// backend: a simulate routes by its own fingerprint, which may name
		// a different owner than the schedule's, and hot cells spill across
		// the fleet. Then every op the timed phase can draw for the cell —
		// its full simulate and, under the sentinel models, its fault
		// simulate — on the router and on each backend, checked as timed
		// ops are: the whole matrix is held to the oracle whatever the
		// seed draws, and the processes' heaps reach their steady size.
		return parallel(len(d.cells), conc, func(w, i int) error {
			c := d.cells[i]
			ops := []op{{kind: opFull, cell: c}}
			if c.model == "sentinel" || c.model == "sentinel+stores" {
				ops = append(ops, op{kind: opFault, cell: c})
			}
			sched := appendPost(nil, "/v1/schedule", c.body(""), "")
			for _, conn := range append([]*httpConn{router[w]}, direct[w]...) {
				r, err := conn.do(sched)
				if err != nil {
					return err
				}
				if err := checkSchedule(r); err != nil {
					return err
				}
			}
			for _, o := range ops {
				req := d.render(nil, o, "")
				for _, conn := range append([]*httpConn{router[w]}, direct[w]...) {
					r, err := conn.do(req)
					if err != nil {
						return err
					}
					if err := d.check(o, r, nil); err != nil {
						return fmt.Errorf("%s via %s: %w", c.body(""), conn.addr, err)
					}
				}
			}
			return nil
		})
	default: // compile
		return d.prefillCompile(f, router)
	}
}

// Compile prefill: distinct programs in chunks, at least prefillMinChunks
// of them — six times a cache's 512 entries, so every cache has turned
// over — and on until the router's front cache and every backend's
// response cache have started evicting.
const (
	prefillChunk     = 256
	prefillMinChunks = 12
	prefillChunks    = 64
	prefillWorker    = 255 // program-index lane reserved for set-up programs
)

func (d *driver) prefillCompile(f *topology, router []*httpConn) error {
	for c := 0; c < prefillChunks; c++ {
		err := parallel(prefillChunk, len(router), func(w, i int) error {
			k := uint64(c*prefillChunk + i)
			o := compileOp(d.seed, prefillWorker, k, rand.New(rand.NewPCG(d.seed, k)))
			r, err := router[w].do(appendPost(nil, "/v1/schedule", o.body, ""))
			if err != nil {
				return err
			}
			return checkSchedule(r)
		})
		if err != nil {
			return err
		}
		if c+1 < prefillMinChunks {
			continue
		}
		ms, err := scrapeFleet(f)
		if err != nil {
			return err
		}
		if !slices.ContainsFunc(ms, func(m map[string]float64) bool {
			return m["fleet_cache_evicts"]+m["server_respcache_evicts"] == 0
		}) {
			return nil
		}
	}
	return errors.New("caches not full after the prefill budget")
}

// scrape reads addr's /metrics into name → value (unlabelled samples only).
func scrape(addr string) (map[string]float64, error) {
	c := &httpConn{addr: addr}
	defer c.Close()
	r, err := c.do(appendGet(nil, "/metrics", ""))
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	if r.Status != 200 {
		return nil, fmt.Errorf("scrape %s: status %d", addr, r.Status)
	}
	return parseMetrics(r.Body), nil
}

func parseMetrics(text []byte) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(val, &v); err == nil {
			m[name] = v
		}
	}
	return m
}
