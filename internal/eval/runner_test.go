package eval

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

var allModels = []machine.Model{machine.Restricted, machine.General,
	machine.Sentinel, machine.SentinelStores}

// TestRunnerMatchesSerial: the parallel engine must render byte-identical
// figures to the serial path over the same matrix slice, at any worker
// count. Run with -race this doubles as the engine's data-race audit.
func TestRunnerMatchesSerial(t *testing.T) {
	benches := []workload.Benchmark{
		bench(t, "grep"), bench(t, "wc"), bench(t, "cmp"), bench(t, "matrix300"),
	}
	var serial []*BenchResult
	for _, b := range benches {
		r, err := serialRun(b, allModels, Widths)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, r)
	}

	for _, workers := range []int{1, 4, 16} {
		parallel, err := NewRunner(workers).RunBenchmarks(benches, allModels, Widths, superblock.Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, render := range []struct {
			name string
			fn   func([]*BenchResult) string
		}{
			{"Figure4", Figure4},
			{"Figure5", Figure5},
			{"Overhead", func(rs []*BenchResult) string { return SentinelOverheadTable(rs, 8) }},
		} {
			want, got := render.fn(serial), render.fn(parallel)
			if want != got {
				t.Errorf("workers=%d: %s differs from serial path:\nserial:\n%s\nparallel:\n%s",
					workers, render.name, want, got)
			}
		}
	}
}

// TestConcurrentMeasureSharedCache: many goroutines measuring the same
// benchmark through one Runner must not interfere — every call sees the
// same cell, and the shared cached artifacts (program, memory image,
// reference result) are never corrupted by cache aliasing. -race enforces
// the "never corrupted" half; the value comparison the rest.
func TestConcurrentMeasureSharedCache(t *testing.T) {
	r := NewRunner(8)
	b := bench(t, "wc")
	md := machine.Base(8, machine.Sentinel)

	want, err := Measure(b, md, superblock.Options{}) // independent serial baseline
	if err != nil {
		t.Fatal(err)
	}

	const callers = 16
	cells := make([]Cell, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the callers measure the same cell, half a different
			// width of the same benchmark, so the underlying build/form
			// artifacts are shared across distinct schedules too.
			m := md
			if i%2 == 1 {
				m = machine.Base(2, machine.Sentinel)
			}
			cells[i], errs[i] = r.Measure(b, m, superblock.Options{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
	}
	for i := 0; i < callers; i += 2 {
		if cells[i] != want {
			t.Errorf("caller %d: cell %+v != serial %+v", i, cells[i], want)
		}
		if cells[i] != cells[0] {
			t.Errorf("caller %d: cell differs from caller 0", i)
		}
	}
}

// TestRunnerPanicReleasesWaiters: a cell whose compile panics (here the
// benchmark's Build, once) must not wedge its key. The panic reaches the
// goroutine that ran it, a concurrent caller of the same cell is released
// at once with ErrComputePanicked instead of waiting out its deadline, and
// the next call compiles afresh and measures what Measure does.
func TestRunnerPanicReleasesWaiters(t *testing.T) {
	real := bench(t, "wc")
	var builds atomic.Int64
	started, unblock := make(chan struct{}), make(chan struct{})
	b := real
	b.Build = func() (*prog.Program, *mem.Memory) {
		if builds.Add(1) == 1 {
			close(started)
			<-unblock
			panic("build exploded")
		}
		return real.Build()
	}
	r := NewRunner(1)
	md := machine.Base(4, machine.Sentinel)

	ownerPanic := make(chan any, 1)
	go func() {
		defer func() { ownerPanic <- recover() }()
		r.Measure(b, md, superblock.Options{}) //nolint:errcheck
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	waiterErr := make(chan error, 1)
	go func() {
		_, err := r.MeasureCtx(ctx, b, md, superblock.Options{})
		waiterErr <- err
	}()
	for r.cells.hits.Load() == 0 { // the waiter found the owner's entry
		runtime.Gosched()
	}
	close(unblock)

	if got := <-ownerPanic; got != "build exploded" {
		t.Fatalf("owner recovered %v, want the build's panic", got)
	}
	if err := <-waiterErr; !errors.Is(err, ErrComputePanicked) {
		t.Fatalf("waiter got %v, want %v", err, ErrComputePanicked)
	}
	if ctx.Err() != nil {
		t.Fatal("waiter was released only by its deadline")
	}

	want, err := Measure(real, md, superblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.MeasureCtx(ctx, b, md, superblock.Options{})
	if err != nil || got != want {
		t.Fatalf("measure after the panic = %+v, %v; want %+v", got, err, want)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("Build ran %d times, want 2 (the panic, then one recompute)", n)
	}
}

// TestRunnerSurfacesCellKey: when a cell fails, the error must name the
// failing cell (benchmark, model, width) so a 221-cell sweep is debuggable.
func TestRunnerSurfacesCellKey(t *testing.T) {
	// Issue width 0 fails machine.Desc.Validate inside core.Schedule.
	_, err := NewRunner(4).Run(bench(t, "grep"), []machine.Model{machine.Sentinel}, []int{0}, superblock.Options{})
	if err == nil {
		t.Fatal("want error for width 0")
	}
	for _, want := range []string{"grep", "sentinel", "@0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the failing cell (%q missing)", err, want)
		}
	}
}

// TestVerifySentinelErrors: verification failures must be classifiable with
// errors.Is, and still carry the benchmark and configuration.
func TestVerifySentinelErrors(t *testing.T) {
	md := machine.Base(8, machine.Sentinel)
	ref := &prog.Result{MemSum: 1, Out: []int64{1, 2}}

	err := verifyResult("x", md, &sim.Result{MemSum: 2}, ref)
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("checksum mismatch not errors.Is(ErrChecksumMismatch): %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "x") || !strings.Contains(err.Error(), "sentinel") {
		t.Errorf("checksum error lacks cell context: %v", err)
	}

	err = verifyResult("x", md, &sim.Result{MemSum: 1, Out: []int64{1}}, ref)
	if !errors.Is(err, ErrOutputMismatch) {
		t.Errorf("length mismatch not errors.Is(ErrOutputMismatch): %v", err)
	}
	err = verifyResult("x", md, &sim.Result{MemSum: 1, Out: []int64{1, 3}}, ref)
	if !errors.Is(err, ErrOutputMismatch) {
		t.Errorf("value mismatch not errors.Is(ErrOutputMismatch): %v", err)
	}
	if err := verifyResult("x", md, &sim.Result{MemSum: 1, Out: []int64{1, 2}}, ref); err != nil {
		t.Errorf("matching result must verify: %v", err)
	}
}

// TestRunnerResetAndCacheStats: the artifact caches must be observable
// (sizes, hits, misses) and reclaimable — Reset drops every entry and a
// subsequent measurement recomputes from scratch with identical results,
// so long-lived sweep processes can bound their footprint.
func TestRunnerResetAndCacheStats(t *testing.T) {
	r := NewRunner(2)
	b := bench(t, "wc")
	md := machine.Base(8, machine.Sentinel)

	before, err := r.Measure(b, md, superblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Measure(b, md, superblock.Options{}); err != nil {
		t.Fatal(err)
	}
	cs := r.CacheStats()
	for _, name := range []string{"builds", "forms", "scheds", "cells"} {
		if cs[name].Size != 1 {
			t.Errorf("cache %s size = %d, want 1", name, cs[name].Size)
		}
		if cs[name].Misses != 1 {
			t.Errorf("cache %s misses = %d, want 1", name, cs[name].Misses)
		}
	}
	if cs["cells"].Hits != 1 {
		t.Errorf("cells hits = %d, want 1 (second Measure is a cache hit)", cs["cells"].Hits)
	}

	r.Reset()
	for name, c := range r.CacheStats() {
		if c.Size != 0 {
			t.Errorf("cache %s size after Reset = %d, want 0", name, c.Size)
		}
	}
	after, err := r.Measure(b, md, superblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("post-Reset cell differs: %+v vs %+v", after, before)
	}
	if got := r.CacheStats()["cells"].Misses; got != 2 {
		t.Errorf("cells misses after Reset+Measure = %d, want 2 (recomputed)", got)
	}
}

// TestRunnerMetrics: an attached registry must observe the sweep — per-cell
// wall times, worker busy/span, cache gauges — without changing any
// measured value relative to an uninstrumented Runner.
func TestRunnerMetrics(t *testing.T) {
	benches := []workload.Benchmark{bench(t, "wc"), bench(t, "cmp")}
	models := []machine.Model{machine.Sentinel}

	plain, err := NewRunner(2).RunBenchmarks(benches, models, Widths, superblock.Options{})
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(2)
	reg := obs.NewRegistry()
	r.SetMetrics(reg)
	observed, err := r.RunBenchmarks(benches, models, Widths, superblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Base != observed[i].Base {
			t.Errorf("%s: metrics changed the base cell", plain[i].Name)
		}
		for k, c := range plain[i].Cells {
			if observed[i].Cells[k] != c {
				t.Errorf("%s/%v: metrics changed the cell", plain[i].Name, k)
			}
		}
	}

	cellCount := reg.Histogram("runner.cell_ns").Snapshot().Count
	if want := int64(len(benches) * (1 + len(Widths))); cellCount != want {
		t.Errorf("cell_ns observations = %d, want %d", cellCount, want)
	}
	if reg.Counter("runner.busy_ns").Value() <= 0 {
		t.Error("busy_ns not recorded")
	}
	sum := r.MetricsSummary()
	for _, want := range []string{"worker utilization", "cell wall time",
		"runner.cache.builds.size", "runner.cache.cells.misses", "runner.workers"} {
		if !strings.Contains(sum, want) {
			t.Errorf("metrics summary missing %q:\n%s", want, sum)
		}
	}
	if NewRunner(1).MetricsSummary() != "" {
		t.Error("summary without SetMetrics must be empty")
	}
}

// TestRunnerSimulate: the trace entry point must reuse cached artifacts
// (no new cell entries) and reproduce the measured cell's timing while
// feeding the tracer.
func TestRunnerSimulate(t *testing.T) {
	r := NewRunner(1)
	b := bench(t, "cmp")
	md := machine.Base(8, machine.SentinelStores)
	cell, err := r.Measure(b, md, superblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tr := obs.NewTracer(&buf)
	res, err := r.Simulate(b, md, superblock.Options{}, sim.Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Cycles != cell.Cycles || res.Instrs != cell.Instrs {
		t.Errorf("Simulate result %d cycles/%d instrs != measured cell %d/%d",
			res.Cycles, res.Instrs, cell.Cycles, cell.Instrs)
	}
	if buf.Len() == 0 {
		t.Error("tracer received no events")
	}
	if got := r.CacheStats()["cells"].Size; got != 1 {
		t.Errorf("Simulate must not grow the cells cache: size %d, want 1", got)
	}
}

// TestRunnerExtensionsMatchSerial pins the extension experiments' parallel
// rendering: -j 1 and -j 8 must agree byte for byte. (The serial originals
// were folded into the Runner; determinism across worker counts is the
// contract that replaced them.)
func TestRunnerExtensionsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full extension sweep")
	}
	r1, r8 := NewRunner(1), NewRunner(8)
	for _, sec := range []struct {
		name string
		fn   func(*Runner) (string, error)
	}{
		{"RecoveryCost", (*Runner).RecoveryCost},
		{"StoreBufferSweep", (*Runner).StoreBufferSweep},
		{"SharingAblation", (*Runner).SharingAblation},
		{"BoostingComparison", (*Runner).BoostingComparison},
		{"FaultInjection", (*Runner).FaultInjection},
	} {
		a, err := sec.fn(r1)
		if err != nil {
			t.Fatalf("%s -j1: %v", sec.name, err)
		}
		b, err := sec.fn(r8)
		if err != nil {
			t.Fatalf("%s -j8: %v", sec.name, err)
		}
		if a != b {
			t.Errorf("%s: -j1 and -j8 outputs differ:\n%s\n----\n%s", sec.name, a, b)
		}
	}
}
