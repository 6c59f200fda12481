// Package eval is the experiment harness that regenerates the paper's
// evaluation: Figure 4 (sentinel scheduling vs restricted percolation) and
// Figure 5 (general percolation vs sentinel scheduling vs sentinel
// scheduling with speculative stores), for issue rates 2, 4 and 8, over the
// 17 benchmark kernels — plus the extension experiments (recovery-constraint
// cost, store-buffer size sweep, sentinel-overhead counts).
//
// As in the paper, the base machine for all speedup calculations has an
// issue rate of 1 and supports the restricted percolation model (§5.2).
package eval

import (
	"errors"
	"fmt"

	"sentinel/internal/core"
	"sentinel/internal/machine"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// Widths are the issue rates evaluated in the paper's figures.
var Widths = []int{2, 4, 8}

// Sentinel errors for the Measure invariant, so callers can classify
// verification failures with errors.Is instead of string matching. Every
// wrapping error still carries the benchmark name and machine configuration.
var (
	// ErrChecksumMismatch: a scheduled run's final memory image differs
	// from the reference interpreter's.
	ErrChecksumMismatch = errors.New("memory checksum mismatch")
	// ErrOutputMismatch: a scheduled run's output stream differs from the
	// reference interpreter's.
	ErrOutputMismatch = errors.New("output mismatch")
)

// Cell is one measurement: a benchmark compiled and simulated on one
// machine configuration.
type Cell struct {
	Cycles  int64
	Instrs  int64
	Speedup float64 // vs the issue-1 restricted base of the same benchmark
	Stats   core.Stats
	// Sim is the simulator's per-run observability breakdown (stall causes,
	// speculation and sentinel activity, occupancy high-water marks).
	Sim obs.SimStats
}

// Measure compiles benchmark b for machine md (profiling on the training
// input, forming superblocks, scheduling) and simulates it, verifying that
// the architectural result matches the reference interpreter. It caches
// nothing: it is the reference the Runner's cached cells are checked
// against. Errors wrap the benchmark name.
func Measure(b workload.Benchmark, md machine.Desc, sbo superblock.Options) (Cell, error) {
	p, m := b.Build()
	f, ref, err := Front(p, m, FrontOptions{Form: true, SBO: sbo})
	if err != nil {
		return Cell{}, frontError(b.Name, err)
	}
	sched, stats, err := core.ScheduleOwned(f, md)
	if err != nil {
		return Cell{}, fmt.Errorf("%s: schedule: %w", b.Name, err)
	}
	res, err := sim.Run(sched, md, m, sim.Options{})
	if err != nil {
		return Cell{}, fmt.Errorf("%s: simulate: %w", b.Name, err)
	}
	if err := verifyResult(b.Name, md, res, ref); err != nil {
		return Cell{}, err
	}
	return Cell{Cycles: res.Cycles, Instrs: res.Instrs, Stats: stats, Sim: res.Stats}, nil
}

// verifyResult enforces the Measure invariant: the scheduled run's
// architectural result (memory checksum and output stream) must match the
// reference interpreter's, under every model and width.
func verifyResult(name string, md machine.Desc, res *sim.Result, ref *prog.Result) error {
	if res.MemSum != ref.MemSum {
		return fmt.Errorf("%s: %w under %v w%d", name, ErrChecksumMismatch, md.Model, md.IssueWidth)
	}
	if len(res.Out) != len(ref.Out) {
		return fmt.Errorf("%s: %w: output length %d != %d under %v w%d",
			name, ErrOutputMismatch, len(res.Out), len(ref.Out), md.Model, md.IssueWidth)
	}
	for i := range res.Out {
		if res.Out[i] != ref.Out[i] {
			return fmt.Errorf("%s: %w: output[%d]: %d != %d under %v w%d",
				name, ErrOutputMismatch, i, res.Out[i], ref.Out[i], md.Model, md.IssueWidth)
		}
	}
	return nil
}

// Key identifies a machine configuration within a benchmark's results.
type Key struct {
	Model machine.Model
	Width int
}

// BenchResult holds all measurements of one benchmark.
type BenchResult struct {
	Name    string
	Numeric bool
	// Base is the issue-1 restricted-percolation measurement all speedups
	// are relative to.
	Base  Cell
	Cells map[Key]Cell
}

// Speedup returns the speedup of a configuration over the base machine.
func (r *BenchResult) Speedup(model machine.Model, width int) float64 {
	return r.Cells[Key{model, width}].Speedup
}

// GroupAverage returns the arithmetic-mean speedup of a configuration over
// the numeric or non-numeric group.
func GroupAverage(rs []*BenchResult, numeric bool, model machine.Model, width int) float64 {
	sum, n := 0.0, 0
	for _, r := range rs {
		if r.Numeric != numeric {
			continue
		}
		sum += r.Speedup(model, width)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// GroupImprovement returns the arithmetic-mean percentage improvement of
// model a over model b at the given width, over one benchmark group — the
// statistic the paper quotes ("57% speedup improvement ... over restricted
// percolation").
func GroupImprovement(rs []*BenchResult, numeric bool, a, b machine.Model, width int) float64 {
	sum, n := 0.0, 0
	for _, r := range rs {
		if r.Numeric != numeric {
			continue
		}
		sa, sb := r.Speedup(a, width), r.Speedup(b, width)
		if sb > 0 {
			sum += (sa/sb - 1) * 100
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
