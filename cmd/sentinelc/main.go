// Command sentinelc is the compiler driver: it assembles a MIR source file,
// optionally forms superblocks from a profiling run, schedules under a
// chosen speculation model and issue width, and prints the schedule.
//
//	sentinelc -model sentinel -width 8 -superblock prog.s
//	sentinelc -model restricted -width 1 prog.s        # base machine
//	sentinelc -workload grep -model sentinel+stores    # built-in kernels
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/eval"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

func main() {
	model := flag.String("model", "sentinel", "speculation model: restricted, general, sentinel, sentinel+stores, boosting")
	width := flag.Int("width", 8, "issue width")
	form := flag.Bool("superblock", true, "profile and form superblocks before scheduling")
	unroll := flag.Int("unroll", 0, "unroll factor (0 = default)")
	recovery := flag.Bool("recovery", false, "enforce §3.7 restartable-sequence constraints")
	wl := flag.String("workload", "", "compile a built-in benchmark kernel instead of a source file")
	stats := flag.Bool("stats", true, "print scheduling statistics")
	flag.Parse()

	md, err := parseMachine(*model, *width, *recovery)
	if err != nil {
		fatal(err)
	}

	var p *prog.Program
	var m *mem.Memory
	switch {
	case *wl != "":
		b, ok := workload.ByName(*wl)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (see cmd/paperfigs for the list)", *wl))
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

	p, _, err = eval.Front(p, m, eval.FrontOptions{Form: *form, SBO: superblock.Options{Unroll: *unroll}})
	if err != nil {
		var se *eval.StageError
		if errors.As(err, &se) && se.Stage == eval.StageReference {
			err = fmt.Errorf("profiling run: %w", err)
		}
		fatal(err)
	}
	sched, st, err := core.ScheduleOwned(p, md)
	if err != nil {
		fatal(err)
	}
	fmt.Print(asm.FormatScheduled(sched))
	if *stats {
		fmt.Fprintf(os.Stderr,
			"\n%d speculative, %d checks, %d confirms, %d control deps removed, %d tag resets, %d renamed, %d forced\n",
			st.Speculative, st.Sentinels, st.Confirms, st.RemovedControl,
			st.ClearTags, st.Renamed, st.ForcedIssues)
	}
}

func parseMachine(model string, width int, recovery bool) (machine.Desc, error) {
	m, err := machine.ParseModel(model)
	if err != nil {
		return machine.Desc{}, err
	}
	md := machine.Base(width, m)
	if recovery {
		md = md.WithRecovery()
	}
	return md, md.Validate()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sentinelc:", err)
	os.Exit(1)
}
