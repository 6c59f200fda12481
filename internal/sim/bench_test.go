package sim

import (
	"testing"

	"sentinel/internal/core"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// benchScheduled compiles one workload kernel end to end (build, profile,
// form, schedule) for the given machine, returning the scheduled program and
// the pristine input memory. Everything here is out of the measured loop.
func benchScheduled(b *testing.B, name string, md machine.Desc) (*prog.Program, *mem.Memory) {
	b.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %q", name)
	}
	p, m := w.Build()
	p.Layout()
	ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
	if err != nil {
		b.Fatal(err)
	}
	f := superblock.Form(p, ref.Profile, superblock.Options{})
	f.Layout()
	sched, _, err := core.Schedule(f, md)
	if err != nil {
		b.Fatal(err)
	}
	return sched, m
}

// benchSimRun measures Run on the kernels with the largest superblocks plus
// wc (the longest dynamic run) at issue 8 under md, with the index and, for
// a predicting frontend, the predictor prebuilt and passed in so the
// measured loop stays allocation-free. Memory cloning is inside the loop
// (every real measurement pays it) but is O(segments), not O(cycles).
func benchSimRun(b *testing.B, md machine.Desc) {
	for _, name := range []string{"nasa7", "tomcatv", "doduc", "wc"} {
		b.Run(name, func(b *testing.B) {
			sched, m := benchScheduled(b, name, md.CompileView())
			opts := Options{Index: NewProgIndex(sched)}
			if md.Predictor != machine.PredPerfect {
				opts.Pred = NewPredictor(md, opts.Index)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(sched, md, m.Clone(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimRun is the simulator inner loop under sentinel + speculative
// stores. These are the perf-trajectory benchmarks recorded in
// BENCH_sim.json; CI fails on a >20% ns/op regression against the committed
// baseline.
func BenchmarkSimRun(b *testing.B) {
	benchSimRun(b, machine.Base(8, machine.SentinelStores))
}

// BenchmarkSimRunTAGE is BenchmarkSimRun with the TAGE frontend. The delta
// against BenchmarkSimRun is the pure frontend cost (lookup, update,
// redirect and throttle accounting). Recorded in BENCH_sim.json alongside
// the classic rows and gated by the same CI regression check.
func BenchmarkSimRunTAGE(b *testing.B) {
	benchSimRun(b, machine.Base(8, machine.SentinelStores).WithPredictor(machine.PredTAGE))
}

// BenchmarkSimRunBoost is BenchmarkSimRun under the boosting model, whose
// shadow register files commit or discard at every conditional branch.
// Recorded in BENCH_sim.json and gated like the other rows.
func BenchmarkSimRunBoost(b *testing.B) {
	benchSimRun(b, machine.Base(8, machine.Boosting))
}

// allocsPerRun measures Run's steady-state allocations on one schedule;
// the memory clone is inside the measured function on every side of a
// comparison, so its (identical, O(segments)) allocations cancel.
func allocsPerRun(t *testing.T, sched *prog.Program, m *mem.Memory, md machine.Desc, opts Options) float64 {
	t.Helper()
	// One warmup run outside the measurement settles lazy runtime state.
	if _, err := Run(sched, md, m.Clone(), opts); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		if _, err := Run(sched, md, m.Clone(), opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunAllocs bounds Run's steady-state allocations with a prebuilt
// index: the machine, its store buffer, the output vector, the result, the
// per-run execution counts and the memory clone — none per issued
// instruction.
func TestRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	md := machine.Base(8, machine.SentinelStores)
	for _, c := range []struct {
		name  string
		bound float64
	}{{"nasa7", 29}, {"wc", 13}} {
		sched, m := schedFor(t, c.name, md)
		if got := allocsPerRun(t, sched, m, md, Options{Index: NewProgIndex(sched)}); got > c.bound {
			t.Errorf("%s: Run allocates %.1f/op, want at most %.0f", c.name, got, c.bound)
		}
	}
}

// TestFaultingAccessAllocs pins that a faulting memory access allocates
// nothing: nasa7 under sentinel+stores takes faulting speculative loads on
// every run, which cost one heap-allocated fault record each (28 allocations
// per Run) while faults were returned by pointer.
func TestFaultingAccessAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	md := machine.Base(8, machine.SentinelStores)
	sched, m := schedFor(t, "nasa7", md)
	opts := Options{Index: NewProgIndex(sched)}
	res, err := Run(sched, md, m.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TagSets == 0 {
		t.Fatal("no speculative access faulted: the measurement is vacuous")
	}
	if got := allocsPerRun(t, sched, m, md, opts); got > 19 {
		t.Errorf("faulting nasa7 Run allocates %.1f/op, want at most 19", got)
	}
}

// TestRunTAGEAllocFree pins the frontend's steady-state allocation behavior:
// with a prebuilt index and predictor, a TAGE-frontend Run allocates no more
// than the perfect-frontend Run on the same schedule. All predictor state
// lives in the arena built by NewPredictor and is Reset per run, so the
// frontend adds zero allocations to the inner loop.
func TestRunTAGEAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	md := machine.Base(8, machine.SentinelStores).WithPredictor(machine.PredTAGE)
	sched, m := schedFor(t, "wc", md)
	idx := NewProgIndex(sched)
	base := allocsPerRun(t, sched, m, md.CompileView(), Options{Index: idx})
	tage := allocsPerRun(t, sched, m, md, Options{Index: idx, Pred: NewPredictor(md, idx)})
	if tage > base {
		t.Errorf("TAGE frontend Run allocates %.1f/op > perfect %.1f/op; the frontend must be allocation-free", tage, base)
	}
	t.Logf("allocs/op: perfect %.1f, tage %.1f", base, tage)
}

// TestRunBoostAllocFree bounds the boosting model's allocations: the shadow
// register files are built once per Run, and commits and discards touch
// only their presence bitmaps, so a boosting Run allocates no more than a
// sentinel Run of the same kernel.
func TestRunBoostAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	sentinel := machine.Base(8, machine.Sentinel)
	ss, sm := schedFor(t, "wc", sentinel)
	base := allocsPerRun(t, ss, sm, sentinel, Options{Index: NewProgIndex(ss)})
	boosting := machine.Base(8, machine.Boosting)
	bs, bm := schedFor(t, "wc", boosting)
	boost := allocsPerRun(t, bs, bm, boosting, Options{Index: NewProgIndex(bs)})
	if boost > base {
		t.Errorf("boosting Run allocates %.1f/op > sentinel %.1f/op; shadow state must not allocate per branch", boost, base)
	}
	t.Logf("allocs/op: sentinel %.1f, boosting %.1f", base, boost)
}

// BenchmarkSimRunNoIndex is BenchmarkSimRun/wc without a prebuilt ProgIndex:
// the per-run cost of building the dense PC/target index inside Run, which
// callers without a schedule cache (tests, one-shot tools) pay.
func BenchmarkSimRunNoIndex(b *testing.B) {
	md := machine.Base(8, machine.SentinelStores)
	sched, m := benchScheduled(b, "wc", md)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sched, md, m.Clone(), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
