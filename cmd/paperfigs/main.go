// Command paperfigs regenerates every table and figure of the paper's
// evaluation on the simulated machine:
//
//	paperfigs -fig4 -fig5          # the two headline figures
//	paperfigs -table3              # machine latencies
//	paperfigs -overhead            # sentinel-insertion ablation
//	paperfigs -recovery            # recovery-constraint cost (extension)
//	paperfigs -buffer              # store-buffer size sweep (extension)
//	paperfigs -all                 # everything
//	paperfigs -all -j 8            # everything, 8 cells compiled/simulated at once
//
// All sections share one evaluation runner, so per-benchmark artifacts
// (build, reference profile, superblock formation, schedules) are computed
// once per invocation regardless of how many sections request them, and the
// cell matrix is fanned out over -j workers. Output is byte-identical at
// any -j.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"sentinel/internal/eval"
	"sentinel/internal/machine"
	"sentinel/internal/obs"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// sections aliases the shared section selector; the rendering itself lives
// in eval.RenderSections so `sentineld`'s /v1/figures serves the exact same
// bytes.
type sections = eval.Sections

// run renders the selected sections to w using r for every measurement.
func run(s sections, r *eval.Runner, w io.Writer) error {
	return eval.RenderSections(context.Background(), s, r, w)
}

func main() {
	var s sections
	flag.BoolVar(&s.Fig4, "fig4", false, "Figure 4: sentinel vs restricted percolation")
	flag.BoolVar(&s.Fig5, "fig5", false, "Figure 5: general vs sentinel vs sentinel+stores")
	flag.BoolVar(&s.Table3, "table3", false, "Table 3: instruction latencies")
	flag.BoolVar(&s.Overhead, "overhead", false, "sentinel overhead ablation")
	flag.BoolVar(&s.Recovery, "recovery", false, "recovery-constraint cost (extension)")
	flag.BoolVar(&s.Buffer, "buffer", false, "store-buffer size sweep (extension)")
	flag.BoolVar(&s.Faults, "faults", false, "fault-injection study (extension)")
	flag.BoolVar(&s.Sharing, "sharing", false, "shared-sentinel ablation (extension)")
	flag.BoolVar(&s.Boost, "boosting", false, "instruction boosting vs sentinel (extension)")
	flag.BoolVar(&s.Prediction, "prediction", false, "branch-prediction sensitivity: perfect vs static vs TAGE frontends (extension)")
	all := flag.Bool("all", false, "run everything")
	jobs := flag.Int("j", 0, "cells to compile/simulate concurrently (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print runner cache/utilization metrics to stderr after the run")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON of one benchmark cell to this file (see -tracebench)")
	traceBench := flag.String("tracebench", "cmp", "benchmark to trace with -trace (sentinel+stores, issue 8)")
	var prof obs.Profiles
	flag.StringVar(&prof.CPUFile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&prof.MemFile, "memprofile", "", "write a pprof heap profile to this file on exit")
	flag.StringVar(&prof.HTTPAddr, "httpprof", "", "serve net/http/pprof and /debug/vars on this address (e.g. :6060)")
	flag.Parse()

	if *all {
		s = eval.AllSections()
	}
	if !s.Any() {
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	r := eval.NewRunner(*jobs)
	var reg *obs.Registry
	if *stats {
		reg = obs.NewRegistry()
		r.SetMetrics(reg)
		if err := reg.Publish("paperfigs"); err != nil {
			fatal(err)
		}
	}
	if err := run(s, r, os.Stdout); err != nil {
		fatal(err)
	}
	// Observability side-channels write to stderr and separate files, never
	// to stdout: figure output stays byte-identical with them on or off
	// (the CI "no observer effect" job and TestObserverEffect pin this).
	if *trace != "" {
		if err := writeTrace(r, *traceBench, *trace); err != nil {
			fatal(err)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "\n== runner metrics ==\n%s", r.MetricsSummary())
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// writeTrace re-simulates one benchmark cell (sentinel+stores, issue 8 —
// the configuration that exercises tags, probationary stores and sentinel
// flows) with the cycle tracer attached, reusing the runner's cached
// artifacts, and writes Chrome trace-event JSON to path.
func writeTrace(r *eval.Runner, bench, path string) error {
	b, ok := workload.ByName(bench)
	if !ok {
		return fmt.Errorf("-tracebench: unknown workload %q", bench)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := obs.NewTracer(f)
	_, err = r.Simulate(b, machine.Base(8, machine.SentinelStores), superblock.Options{}, sim.Options{Trace: tr})
	if cerr := tr.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
