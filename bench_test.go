package sentinel

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index):
//
//	go test -bench=Figure4 .       # Figure 4: sentinel vs restricted
//	go test -bench=Figure5 .       # Figure 5: general vs sentinel vs stores
//	go test -bench=Table  .        # Table 1/2 semantics microbenchmarks
//	go test -bench=Kernel .        # per-benchmark compile+simulate
//	go test -bench=. -benchmem .   # everything
//
// Reported custom metrics: speedups are relative to the issue-1
// restricted-percolation base machine, exactly as in the paper (§5.2).

import (
	"context"
	"fmt"
	"testing"

	"sentinel/internal/eval"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// BenchmarkTable1Semantics measures the exception-tagged register file's
// per-instruction cost: a speculative faulting load (tag set), a
// propagating add, and the sentinel path, per iteration.
func BenchmarkTable1Semantics(b *testing.B) {
	p := prog.NewProgram()
	p.AddBlock("entry",
		ir.LI(ir.R(2), 0x9000), // unmapped: the load faults
		ir.LI(ir.R(8), 0),
	)
	spec := ir.LOAD(ir.Ld, ir.R(1), ir.R(2), 0)
	spec.Spec = true
	prop := ir.ALUI(ir.Add, ir.R(3), ir.R(1), 1)
	prop.Spec = true
	p.AddBlock("loop",
		spec, prop,
		ir.ALUI(ir.Add, ir.R(8), ir.R(8), 1),
		ir.BRI(ir.Blt, ir.R(8), 1000, "loop"),
	)
	p.AddBlock("done", ir.HALT())
	p.Layout()
	md := machine.Base(8, machine.Sentinel)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, md, mem.New(), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Semantics measures probationary store-buffer insertion,
// confirmation and cancellation throughput.
func BenchmarkTable2Semantics(b *testing.B) {
	p := prog.NewProgram()
	p.AddBlock("entry",
		ir.LI(ir.R(2), 0x1000),
		ir.LI(ir.R(3), 7),
		ir.LI(ir.R(8), 0),
	)
	st := ir.STORE(ir.St, ir.R(2), 0, ir.R(3))
	st.Spec = true
	p.AddBlock("loop",
		st,
		ir.CONFIRM(0),
		ir.ALUI(ir.Add, ir.R(8), ir.R(8), 1),
		ir.BRI(ir.Blt, ir.R(8), 1000, "loop"),
	)
	p.AddBlock("done", ir.HALT())
	p.Layout()
	md := machine.Base(8, machine.SentinelStores)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := mem.New()
		m.Map("d", 0x1000, 8)
		if _, err := sim.Run(p, md, m, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: speedups of sentinel scheduling vs
// restricted percolation at issue 2, 4 and 8 over all 17 kernels. The
// paper's headline group improvements are reported as custom metrics. Each
// iteration gets a fresh serial Runner, so none is served from the cache of
// another.
func BenchmarkFigure4(b *testing.B) {
	models := []machine.Model{machine.Restricted, machine.Sentinel}
	var rs []*eval.BenchResult
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = eval.NewRunner(1).RunAll(models, eval.Widths, superblock.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(eval.GroupImprovement(rs, false, machine.Sentinel, machine.Restricted, 8), "S/R-nonnum-%@8")
	b.ReportMetric(eval.GroupImprovement(rs, true, machine.Sentinel, machine.Restricted, 8), "S/R-num-%@8")
	b.ReportMetric(eval.GroupAverage(rs, false, machine.Sentinel, 8), "S-nonnum-speedup@8")
	b.ReportMetric(eval.GroupAverage(rs, true, machine.Sentinel, 8), "S-num-speedup@8")
}

// BenchmarkFigure5 regenerates Figure 5: general percolation, sentinel
// scheduling and sentinel scheduling with speculative stores, each
// iteration on a fresh Runner as in BenchmarkFigure4.
func BenchmarkFigure5(b *testing.B) {
	models := []machine.Model{machine.General, machine.Sentinel, machine.SentinelStores}
	var rs []*eval.BenchResult
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = eval.NewRunner(1).RunAll(models, eval.Widths, superblock.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(eval.GroupImprovement(rs, false, machine.SentinelStores, machine.Sentinel, 8), "T/S-nonnum-%@8")
	b.ReportMetric(eval.GroupImprovement(rs, true, machine.SentinelStores, machine.Sentinel, 8), "T/S-num-%@8")
	b.ReportMetric(eval.GroupImprovement(rs, false, machine.Sentinel, machine.General, 8), "S/G-nonnum-%@8")
}

// BenchmarkRunnerAll measures the concurrent evaluation engine on the full
// Figure 4+5 cell matrix (17 benchmarks × 4 models × 3 widths + bases). A
// fresh Runner per iteration, so per-benchmark artifact caching is measured
// but nothing is reused across iterations. Compare with BenchmarkFigure4 +
// BenchmarkFigure5, which walk the same matrix through the serial path.
func BenchmarkRunnerAll(b *testing.B) {
	models := []machine.Model{machine.Restricted, machine.General,
		machine.Sentinel, machine.SentinelStores}
	var rs []*eval.BenchResult
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = eval.NewRunner(0).RunAll(models, eval.Widths, superblock.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(eval.GroupImprovement(rs, false, machine.Sentinel, machine.Restricted, 8), "S/R-nonnum-%@8")
}

// BenchmarkRunAllUntraced / BenchmarkRunAllTraced are the observability
// overhead guard: the same full Figure 4+5 matrix through the Runner with
// metrics disabled (the nil fast path every normal figure regeneration
// takes) and with a live metrics registry attached. The delta is the
// observer cost; EXPERIMENTS.md records it and it must stay under 2%.
func BenchmarkRunAllUntraced(b *testing.B) {
	models := []machine.Model{machine.Restricted, machine.General,
		machine.Sentinel, machine.SentinelStores}
	for i := 0; i < b.N; i++ {
		if _, err := eval.NewRunner(0).RunAll(models, eval.Widths, superblock.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllTraced(b *testing.B) {
	models := []machine.Model{machine.Restricted, machine.General,
		machine.Sentinel, machine.SentinelStores}
	var cells int64
	for i := 0; i < b.N; i++ {
		r := eval.NewRunner(0)
		reg := obs.NewRegistry()
		r.SetMetrics(reg)
		if _, err := r.RunAll(models, eval.Widths, superblock.Options{}); err != nil {
			b.Fatal(err)
		}
		cells = reg.Histogram("runner.cell_ns").Snapshot().Count
	}
	b.ReportMetric(float64(cells), "cells-observed")
}

// BenchmarkKernel compiles and simulates each benchmark kernel under
// sentinel scheduling at issue 8, reporting cycles and simulated IPC.
func BenchmarkKernel(b *testing.B) {
	for _, w := range workload.All() {
		b.Run(w.Name, func(b *testing.B) {
			md := machine.Base(8, machine.Sentinel)
			var cell eval.Cell
			for i := 0; i < b.N; i++ {
				var err error
				cell, err = eval.Measure(w, md, superblock.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cell.Cycles), "cycles")
			b.ReportMetric(float64(cell.Instrs)/float64(cell.Cycles), "ipc")
		})
	}
}

// BenchmarkScheduler measures compile throughput: instructions scheduled
// per second over the full kernel suite.
func BenchmarkScheduler(b *testing.B) {
	type job struct {
		p *prog.Program
	}
	var jobs []job
	total := 0
	for _, w := range workload.All() {
		p, m := w.Build()
		p.Layout()
		ref, err := prog.Run(p, m, prog.Options{Collect: true})
		if err != nil {
			b.Fatal(err)
		}
		f := superblock.Form(p, ref.Profile, superblock.Options{})
		f.Layout()
		for _, blk := range f.Blocks {
			total += len(blk.Instrs)
		}
		jobs = append(jobs, job{f})
	}
	md := machine.Base(8, machine.SentinelStores)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, _, err := coreSchedule(j.p, md); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimulator measures simulation throughput (dynamic instructions
// per second) on the largest kernel.
func BenchmarkSimulator(b *testing.B) {
	w, _ := workload.ByName("wc")
	md := machine.Base(8, machine.Sentinel)
	p, m := w.Build()
	p.Layout()
	ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
	if err != nil {
		b.Fatal(err)
	}
	f := superblock.Form(p, ref.Profile, superblock.Options{})
	f.Layout()
	sched, _, err := coreSchedule(f, md)
	if err != nil {
		b.Fatal(err)
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, mm := w.Build()
		res, err := sim.Run(sched, md, mm, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkSimulateMatrix measures sim.Run over the whole cell matrix the
// server simulates — 17 kernels × 5 models × issue 2/4/8 × the perfect,
// static and TAGE frontends — the way a full /v1/simulate runs it: on a
// prepared (cached) schedule with its shared ProgIndex and a fresh memory
// clone. One op simulates every cell of a sub-benchmark's class once;
// boosting is split from the other models because its shadow register
// files make its per-branch work different.
//
//	go test -run XXX -bench SimulateMatrix -count 5 .
func BenchmarkSimulateMatrix(b *testing.B) {
	type cell struct {
		md machine.Desc
		p  eval.Prepared
	}
	classes := map[string][]cell{}
	var names []string
	r := eval.NewRunner(1)
	models := []machine.Model{machine.Restricted, machine.General, machine.Sentinel, machine.SentinelStores, machine.Boosting}
	for _, pred := range []machine.Predictor{machine.PredPerfect, machine.PredStatic, machine.PredTAGE} {
		for _, model := range models {
			class := "other/" + pred.String()
			if model == machine.Boosting {
				class = "boost/" + pred.String()
			}
			if _, ok := classes[class]; !ok {
				names = append(names, class)
			}
			for _, w := range workload.All() {
				for _, width := range []int{2, 4, 8} {
					md := machine.Base(width, model).WithPredictor(pred)
					p, err := r.PreparedCtx(context.Background(), w, md, superblock.Options{})
					if err != nil {
						b.Fatal(err)
					}
					classes[class] = append(classes[class], cell{md, p})
				}
			}
		}
	}
	for _, class := range names {
		cells := classes[class]
		b.Run(class, func(b *testing.B) {
			var instrs int64
			for i := 0; i < b.N; i++ {
				for _, c := range cells {
					res, err := sim.Run(c.p.Prog, c.md, c.p.Mem.Clone(), sim.Options{Index: c.p.Index})
					if err != nil {
						b.Fatal(err)
					}
					instrs += res.Instrs
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cells)), "ns/cell")
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkRecoveryCost quantifies the §3.7 restartable-sequence
// constraints (the experiment the paper left as future work): average
// slowdown of recovery-constrained sentinel scheduling at issue 8.
func BenchmarkRecoveryCost(b *testing.B) {
	var slow float64
	for i := 0; i < b.N; i++ {
		slow = 0
		n := 0
		for _, w := range workload.All() {
			s, err := eval.Measure(w, machine.Base(8, machine.Sentinel), superblock.Options{})
			if err != nil {
				b.Fatal(err)
			}
			r, err := eval.Measure(w, machine.Base(8, machine.Sentinel).WithRecovery(), superblock.Options{})
			if err != nil {
				b.Fatal(err)
			}
			slow += float64(r.Cycles) / float64(s.Cycles)
			n++
		}
		slow = (slow/float64(n) - 1) * 100
	}
	b.ReportMetric(slow, "recovery-slowdown-%")
}

// BenchmarkStoreBufferSweep measures sentinel+stores at issue 8 across
// store-buffer sizes (the §4.2 N-1 separation constraint's reach).
func BenchmarkStoreBufferSweep(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = 0
				for _, name := range []string{"cmp", "espresso", "cccp"} {
					w, _ := workload.ByName(name)
					md := machine.Base(8, machine.SentinelStores)
					md.StoreBuffer = n
					c, err := eval.Measure(w, md, superblock.Options{})
					if err != nil {
						b.Fatal(err)
					}
					cycles += c.Cycles
				}
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkBoosting compares the §2.3 instruction-boosting model against
// sentinel scheduling at issue 8, reporting the suite-mean cycle ratio per
// shadow-level budget (boosting should approach 1.0 as levels grow).
func BenchmarkBoosting(b *testing.B) {
	for _, levels := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("levels%d", levels), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio = 0
				n := 0
				for _, w := range workload.All() {
					md := machine.Base(8, machine.Boosting)
					md.BoostLevels = levels
					boosted, err := eval.Measure(w, md, superblock.Options{})
					if err != nil {
						b.Fatal(err)
					}
					sent, err := eval.Measure(w, machine.Base(8, machine.Sentinel), superblock.Options{})
					if err != nil {
						b.Fatal(err)
					}
					ratio += float64(boosted.Cycles) / float64(sent.Cycles)
					n++
				}
				ratio /= float64(n)
			}
			b.ReportMetric(ratio, "boost/sentinel-cycles")
		})
	}
}
