package core

// The scheduler benchmarks behind BENCH_schedule.json: CI runs them with
// `go test -bench -count=5`, scripts/benchjson.py turns the output into the
// JSON, and scripts/benchgate.py fails on a >20% ns/op regression against
// the committed baseline.

import (
	"testing"

	"sentinel/internal/asm"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// benchFormed builds and superblock-forms one workload kernel, returning the
// scheduler's input program. The heavy lifting (profiling, formation) is out
// of the measured loop.
func benchFormed(tb testing.TB, name string) *prog.Program {
	tb.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		tb.Fatalf("unknown workload %q", name)
	}
	p, m := w.Build()
	p.Layout()
	ref, err := prog.Run(p, m, prog.Options{Collect: true})
	if err != nil {
		tb.Fatal(err)
	}
	f := superblock.Form(p, ref.Profile, superblock.Options{})
	f.Layout()
	return f
}

// benchSchedule measures Schedule of the named kernel under md.
func benchSchedule(b *testing.B, name string, md machine.Desc) {
	f := benchFormed(b, name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Schedule(f, md); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleBlock measures list-scheduling throughput on the kernels
// with the largest formed superblocks (nasa7: 134 instructions, tomcatv:
// 119, doduc: 109, espresso: 53, cmp: 45), under the model that exercises
// every scheduler feature (sentinel + speculative stores).
func BenchmarkScheduleBlock(b *testing.B) {
	for _, name := range []string{"nasa7", "tomcatv", "doduc", "espresso", "cmp"} {
		b.Run(name, func(b *testing.B) {
			benchSchedule(b, name, machine.Base(8, machine.SentinelStores))
		})
	}
}

// BenchmarkScheduleRecovery measures the recovery-constrained scheduler
// (dynamic region tracking is its own hot path) on the largest kernel.
func BenchmarkScheduleRecovery(b *testing.B) {
	b.Run("nasa7", func(b *testing.B) {
		benchSchedule(b, "nasa7", machine.Base(8, machine.Sentinel).WithRecovery())
	})
}

// benchListing keeps the measured FormatScheduled call from being optimized
// away.
var benchListing string

// BenchmarkFormatScheduled measures the listing a /v1/schedule response
// carries, of the largest kernel's schedule: one presized buffer and its
// string (CI bounds it at 2 allocs/op).
func BenchmarkFormatScheduled(b *testing.B) {
	b.Run("nasa7", func(b *testing.B) {
		sched, _, err := Schedule(benchFormed(b, "nasa7"), machine.Base(8, machine.SentinelStores))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchListing = asm.FormatScheduled(sched)
		}
	})
}

// TestScheduleAllocs bounds the allocations of ScheduleBlock/nasa7 at CI's
// hard bound. No kernel needs an exception-tag reset, so the tag-model
// liveness is computed once; a second dataflow.Compute costs 4 more.
// Dependence graphs, with the spill slabs for inserted sentinels, edges
// and edge lists, and the scheduler's per-block state come from
// sync.Pools: the count is 57 once the pooled storage has grown.
func TestScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const bound = 57
	f := benchFormed(t, "nasa7")
	md := machine.Base(8, machine.SentinelStores)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := Schedule(f, md); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("Schedule(nasa7, %v w8) = %.0f allocs/op, want <= %d", md.Model, allocs, bound)
	}
}
