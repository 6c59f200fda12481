// Command sentinelsim compiles and runs a MIR program (or a built-in
// benchmark kernel) on the cycle simulator, reporting cycles, instructions
// and IPC, and verifying the result against the sequential reference
// interpreter.
//
//	sentinelsim -model sentinel -width 8 prog.s
//	sentinelsim -workload cmp -model restricted -width 1
//	sentinelsim -workload cmp -sweep -j 4
//	sentinelsim -workload cmp -stats -trace cmp.json
//
// -sweep measures the workload under every speculation model at every
// paper issue rate through the concurrent evaluation runner (-j workers),
// printing a cycles/speedup table instead of a single run.
//
// Observability: -stats prints the per-run stall-cause breakdown, sentinel
// activity and dynamic opcode mix; -trace writes a Chrome trace-event JSON
// file (open in Perfetto or chrome://tracing) with one track per issue slot
// and flow arrows from each speculative exception to its sentinel;
// -cpuprofile/-memprofile/-httpprof expose pprof.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/eval"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

func main() {
	model := flag.String("model", "sentinel", "speculation model: restricted, general, sentinel, sentinel+stores, boosting")
	width := flag.Int("width", 8, "issue width")
	predictor := flag.String("predictor", "perfect", "branch-prediction frontend: perfect, static, tage")
	mispredict := flag.Int("mispredict", 0, "mispredict redirect penalty in cycles (0 = default for the predictor)")
	form := flag.Bool("superblock", true, "profile and form superblocks before scheduling")
	wl := flag.String("workload", "", "run a built-in benchmark kernel instead of a source file")
	verify := flag.Bool("verify", true, "compare against the reference interpreter")
	sweep := flag.Bool("sweep", false, "measure the workload under every model and width (requires -workload)")
	jobs := flag.Int("j", 0, "cells to compile/simulate concurrently in -sweep (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print the per-run stall-cause and sentinel-activity breakdown")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file of the run (Perfetto/chrome://tracing)")
	var prof obs.Profiles
	flag.StringVar(&prof.CPUFile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&prof.MemFile, "memprofile", "", "write a pprof heap profile to this file on exit")
	flag.StringVar(&prof.HTTPAddr, "httpprof", "", "serve net/http/pprof and /debug/vars on this address (e.g. :6060)")
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}

	if *sweep {
		if *wl == "" {
			fatal(fmt.Errorf("-sweep requires -workload"))
		}
		b, ok := workload.ByName(*wl)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *wl))
		}
		if err := runSweep(b, *jobs, *stats); err != nil {
			fatal(err)
		}
		if err := stopProf(); err != nil {
			fatal(err)
		}
		return
	}

	md, err := parseMachine(*model, *width, *predictor, *mispredict)
	if err != nil {
		fatal(err)
	}

	var p *prog.Program
	var m *mem.Memory
	switch {
	case *wl != "":
		b, ok := workload.ByName(*wl)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *wl))
		}
		p, m = b.Build()
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if p, m, err = asm.Parse(string(src)); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	var tr *obs.Tracer
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		tr = obs.NewTracer(f)
	}
	code, err := simulate(p, m, md, runOpts{form: *form, verify: *verify, stats: *stats, trace: tr}, os.Stdout)
	if tr != nil {
		if cerr := tr.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: %w", cerr)
		}
	}
	if err != nil {
		fatal(err)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if code != 0 {
		os.Exit(code)
	}
}

// runOpts configures one simulate call.
type runOpts struct {
	form   bool
	verify bool
	stats  bool
	trace  *obs.Tracer
}

// simulate compiles and runs one program, writing the report to w. The
// returned code is the intended process exit code (0 ok, 3 unhandled
// exception); an error is a fatal condition. Split from main so tests can
// golden-pin the -stats output.
func simulate(p *prog.Program, m *mem.Memory, md machine.Desc, o runOpts, w io.Writer) (code int, err error) {
	// The reference run is taken only when formation or verification
	// needs it.
	p, ref, err := eval.Front(p, m, eval.FrontOptions{Form: o.form, Reference: o.verify})
	if err != nil {
		var se *eval.StageError
		if errors.As(err, &se) && se.Stage == eval.StageReference {
			err = fmt.Errorf("reference run: %w", err)
		}
		return 0, err
	}
	sched, _, err := core.ScheduleOwned(p, md)
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(sched, md, m, sim.Options{Trace: o.trace})
	if err != nil {
		if exc, ok := sim.Unhandled(err); ok {
			in, blk, _ := sched.InstrAt(exc.ReportedPC)
			fmt.Fprintf(w, "EXCEPTION: %v\n  cause: pc %d: %v (block %s)\n  signalled by pc %d at cycle %d\n",
				exc.Kind, exc.ReportedPC, in, blk.Label, exc.ByPC, exc.Cycle)
			return 3, nil
		}
		return 0, err
	}

	front := ""
	if md.Predictor != machine.PredPerfect {
		front = fmt.Sprintf(", %v frontend (mispredict penalty %d)", md.Predictor, md.MispredictPenalty)
	}
	fmt.Fprintf(w, "machine:  %v, issue %d, %d-entry store buffer%s\n", md.Model, md.IssueWidth, md.StoreBuffer, front)
	fmt.Fprintf(w, "cycles:   %d\n", res.Cycles)
	fmt.Fprintf(w, "instrs:   %d (IPC %.2f)\n", res.Instrs, float64(res.Instrs)/float64(res.Cycles))
	fmt.Fprintf(w, "stalls:   %d\n", res.Stalls)
	fmt.Fprintf(w, "output:   %v\n", res.Out)
	if o.stats {
		fmt.Fprintf(w, "\n%s", res.Stats.String())
	}
	if o.verify {
		switch {
		case res.MemSum != ref.MemSum:
			return 0, fmt.Errorf("VERIFICATION FAILED: memory checksum mismatch")
		case fmt.Sprint(res.Out) != fmt.Sprint(ref.Out):
			return 0, fmt.Errorf("VERIFICATION FAILED: output %v != reference %v", res.Out, ref.Out)
		default:
			fmt.Fprintln(w, "verified: matches the sequential reference")
		}
	}
	return 0, nil
}

// runSweep measures one benchmark under every speculation model at every
// paper issue rate, all cells fanned out over the evaluation runner. With
// stats, the runner's cache and utilization metrics follow the table.
func runSweep(b workload.Benchmark, jobs int, stats bool) error {
	models := []machine.Model{machine.Restricted, machine.General,
		machine.Sentinel, machine.SentinelStores}
	r := eval.NewRunner(jobs)
	if stats {
		r.SetMetrics(obs.NewRegistry())
	}
	res, err := r.Run(b, models, eval.Widths, superblock.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("%s: cycles (speedup vs issue-1 restricted base, %d cycles); %d workers\n\n",
		b.Name, res.Base.Cycles, r.Workers())
	fmt.Printf("%-16s", "model")
	for _, w := range eval.Widths {
		fmt.Printf("  %-16s", fmt.Sprintf("issue %d", w))
	}
	fmt.Printf("\n")
	for _, model := range models {
		fmt.Printf("%-16v", model)
		for _, w := range eval.Widths {
			c := res.Cells[eval.Key{Model: model, Width: w}]
			fmt.Printf("  %-16s", fmt.Sprintf("%d (%.2fx)", c.Cycles, c.Speedup))
		}
		fmt.Printf("\n")
	}
	if stats {
		fmt.Printf("\n%s", r.MetricsSummary())
	}
	return nil
}

func parseMachine(model string, width int, predictor string, mispredict int) (machine.Desc, error) {
	m, err := machine.ParseModel(model)
	if err != nil {
		return machine.Desc{}, err
	}
	p, err := machine.ParsePredictor(predictor)
	if err != nil {
		return machine.Desc{}, err
	}
	md := machine.Base(width, m).WithPredictor(p)
	if mispredict != 0 {
		// Set after WithPredictor so -mispredict with -predictor perfect is
		// a validation error rather than silently ignored.
		md.MispredictPenalty = mispredict
	}
	return md, md.Validate()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sentinelsim:", err)
	os.Exit(1)
}
