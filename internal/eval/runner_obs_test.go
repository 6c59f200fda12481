package eval

import (
	"context"
	"runtime"
	"testing"
	"time"

	"sentinel/internal/machine"
	"sentinel/internal/obs"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

func testRecorder() *obs.Recorder {
	// Retain nothing automatically; tests force retention with Finish(500).
	return obs.NewRecorder(obs.RecorderConfig{Entries: 16, Slow: time.Hour, Every: -1})
}

func spanStages(v *obs.RecordView) map[string]int {
	out := map[string]int{}
	for _, s := range v.Spans {
		out[s.Stage]++
	}
	return out
}

// A cold MeasureCtx with a request record attached must produce the full
// pipeline waterfall — singleflight ownership plus compile, schedule and
// simulate stages — and a warm repeat of the same cell must record nothing.
func TestMeasureCtxSpans(t *testing.T) {
	r := NewRunner(1)
	rec := testRecorder()
	b, ok := workload.ByName("cmp")
	if !ok {
		t.Fatal("no cmp workload")
	}
	md := machine.Base(8, machine.SentinelStores)

	rd := rec.Begin("/test")
	ctx := obs.ContextWithRecord(context.Background(), rd)
	if _, err := r.MeasureCtx(ctx, b, md, superblock.Options{}); err != nil {
		t.Fatal(err)
	}
	rd.Finish(500) // force retention
	cold := rec.Snapshot()[0]
	stages := spanStages(cold)
	for _, want := range []string{"sfown", "compile", "schedule", "simulate"} {
		if stages[want] == 0 {
			t.Errorf("cold measure missing %q span; got %+v", want, cold.Spans)
		}
	}
	// The cells-flight ownership span must enclose the pipeline: some span
	// with arg "cells" is a parent of the simulate span.
	var cellsOwn = -1
	for i, s := range cold.Spans {
		if s.Stage == "sfown" && s.Arg == "cells" {
			cellsOwn = i
		}
	}
	if cellsOwn < 0 {
		t.Fatalf("no sfown/cells span: %+v", cold.Spans)
	}
	for _, s := range cold.Spans {
		if s.Stage == "simulate" && s.Parent != cellsOwn {
			t.Errorf("simulate span parent = %d, want %d (sfown/cells)", s.Parent, cellsOwn)
		}
	}

	rd2 := rec.Begin("/test")
	ctx2 := obs.ContextWithRecord(context.Background(), rd2)
	if _, err := r.MeasureCtx(ctx2, b, md, superblock.Options{}); err != nil {
		t.Fatal(err)
	}
	rd2.Finish(500)
	warm := rec.Snapshot()[0]
	if warm.Seq == cold.Seq {
		t.Fatal("snapshot did not return the warm record first")
	}
	if len(warm.Spans) != 0 {
		t.Errorf("warm measure recorded spans: %+v", warm.Spans)
	}
}

// A caller that blocks on another goroutine's in-flight computation gets a
// wait span labeled with the flight's cache arg.
func TestFlightWaitSpan(t *testing.T) {
	f := &Flight[int, int]{arg: obs.ArgCells}
	rec := testRecorder()
	block := make(chan struct{})
	started := make(chan struct{})
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		f.Get(context.Background(), 1, func() (int, error) {
			close(started)
			<-block
			return 7, nil
		})
	}()
	<-started

	rd := rec.Begin("/test")
	ctx := obs.ContextWithRecord(context.Background(), rd)
	waiterDone := make(chan int, 1)
	go func() {
		v, err := f.Get(ctx, 1, func() (int, error) { return 0, nil })
		if err != nil {
			t.Error(err)
		}
		waiterDone <- v
	}()
	// Wait until the second caller has registered its hit, then release.
	for f.hits.Load() == 0 {
		runtime.Gosched()
	}
	close(block)
	if v := <-waiterDone; v != 7 {
		t.Fatalf("waiter got %d, want 7", v)
	}
	<-ownerDone
	rd.Finish(500)
	snap := rec.Snapshot()[0]
	found := false
	for _, s := range snap.Spans {
		if s.Stage == "sfwait" && s.Arg == "cells" {
			found = true
		}
	}
	if !found {
		t.Errorf("no sfwait/cells span: %+v", snap.Spans)
	}

	// A hit on the now-completed entry must record nothing.
	rd2 := rec.Begin("/test")
	ctx2 := obs.ContextWithRecord(context.Background(), rd2)
	if v, err := f.Get(ctx2, 1, func() (int, error) { return 0, nil }); err != nil || v != 7 {
		t.Fatalf("completed hit = %d, %v", v, err)
	}
	rd2.Finish(500)
	if got := rec.Snapshot()[0]; len(got.Spans) != 0 {
		t.Errorf("completed hit recorded spans: %+v", got.Spans)
	}
}

// Fan-out must strip the record from the context: the record is
// single-goroutine and RunBenchmarksCtx dispatches cells across workers.
func TestParallelForStripsRecord(t *testing.T) {
	r := NewRunner(4)
	rec := testRecorder()
	rd := rec.Begin("/test")
	ctx := obs.ContextWithRecord(context.Background(), rd)
	b, _ := workload.ByName("cmp")
	if _, err := r.RunBenchmarksCtx(ctx, []workload.Benchmark{b},
		[]machine.Model{machine.SentinelStores}, []int{2, 4, 8}, superblock.Options{}); err != nil {
		t.Fatal(err)
	}
	rd.Finish(500)
	if got := rec.Snapshot()[0]; len(got.Spans) != 0 {
		t.Errorf("fan-out leaked %d spans into the request record: %+v", len(got.Spans), got.Spans)
	}
}
