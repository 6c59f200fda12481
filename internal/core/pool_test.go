package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sentinel/internal/alias"
	"sentinel/internal/asm"
	"sentinel/internal/dataflow"
	"sentinel/internal/depgraph"
	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// formedKernel is one workload kernel after profiling and superblock
// formation: the input core.Schedule sees.
type formedKernel struct {
	name string
	f    *prog.Program
}

func formKernels(t *testing.T) []formedKernel {
	t.Helper()
	var out []formedKernel
	for _, w := range workload.All() {
		p, m := w.Build()
		p.Layout()
		ref, err := prog.Run(p, m, prog.Options{Collect: true})
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		f := superblock.Form(p, ref.Profile, superblock.Options{})
		f.Layout()
		out = append(out, formedKernel{w.Name, f})
	}
	return out
}

// drainGraphPool empties depgraph's graph pool: every garbage collection
// moves a sync.Pool's contents to its victim cache and drops the previous
// victims, so two collections with no Release in between leave it empty and
// the next Build allocates fresh storage. The tests calling it run no
// goroutine that could release a graph meanwhile.
func drainGraphPool() {
	runtime.GC()
	runtime.GC()
}

// releaseDirty builds a graph of b, reduces it under md, inserts a sentinel
// or confirm for every node that could take one plus an anti edge from each
// check (so the node arena's spare half, the post-Build edges and the
// reallocated In/Out lists are all in use), and releases it. It returns the
// released graph so the caller can tell whether the next Build reused it.
func releaseDirty(b *prog.Block, lv *dataflow.Liveness, pv *alias.Provenance, md machine.Desc) *depgraph.Graph {
	g := depgraph.Build(b, lv, pv)
	g.Reduce(md)
	n := len(g.Nodes)
	for _, nd := range g.Nodes[:n] {
		if ir.IsStore(nd.Instr.Op) {
			g.InsertConfirm(nd)
		} else if _, ok := nd.Instr.Def(); ok && nd.Unprotected {
			g.AddAnti(g.InsertSentinel(nd), g.Nodes[n-1])
		}
	}
	g.Release()
	return g
}

// sameGraph reports the first difference between a graph built on recycled
// storage and one built on fresh storage from the same block.
func sameGraph(got, want *depgraph.Graph) error {
	if got.Block != want.Block {
		return fmt.Errorf("block %p, reference %p", got.Block, want.Block)
	}
	if got.RemovedControl != want.RemovedControl {
		return fmt.Errorf("RemovedControl %d, reference %d", got.RemovedControl, want.RemovedControl)
	}
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("%d nodes, reference %d", len(got.Nodes), len(want.Nodes))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.Instr != w.Instr || g.ID != w.ID || g.Index != w.Index ||
			g.Sentinel != w.Sentinel || g.Protects != nil || w.Protects != nil {
			return fmt.Errorf("node %d: %v id %d index %d sentinel %v, reference %v id %d index %d sentinel %v",
				i, g.Instr, g.ID, g.Index, g.Sentinel, w.Instr, w.ID, w.Index, w.Sentinel)
		}
		if g.Unprotected != w.Unprotected {
			return fmt.Errorf("node %d: Unprotected %v, reference %v", i, g.Unprotected, w.Unprotected)
		}
		if g.HomeStart != w.HomeStart || g.HomeEnd != w.HomeEnd {
			return fmt.Errorf("node %d: home [%d,%d], reference [%d,%d]",
				i, g.HomeStart, g.HomeEnd, w.HomeStart, w.HomeEnd)
		}
		if err := sameEdges(g.In, w.In); err != nil {
			return fmt.Errorf("node %d In: %v", i, err)
		}
		if err := sameEdges(g.Out, w.Out); err != nil {
			return fmt.Errorf("node %d Out: %v", i, err)
		}
	}
	return nil
}

// TestPooledGraphsMatchFresh builds every block of every workload kernel,
// prepared exactly as Schedule prepares it under every model at widths 2, 4
// and 8 with and without recovery, on recycled storage: once right after a
// larger graph (nasa7's largest superblock, dirtied) was released and once
// right after a smaller one (a three-instruction superblock, dirtied). Each
// must equal a graph built on fresh storage, before and after Reduce.
func TestPooledGraphsMatchFresh(t *testing.T) {
	kernels := formKernels(t)
	dirtyMD := machine.Base(8, machine.SentinelStores)

	// The larger donor: nasa7's largest superblock.
	var big *prog.Block
	var bigLv *dataflow.Liveness
	var bigPv *alias.Provenance
	for _, k := range kernels {
		if k.name != "nasa7" {
			continue
		}
		q, lv, pv, _, err := prepare(k.f, dirtyMD)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range q.Blocks {
			if big == nil || len(b.Instrs) > len(big.Instrs) {
				big, bigLv, bigPv = b, lv, pv
			}
		}
	}
	// The smaller donor: a load whose result only a later side exit reads,
	// so the dirtied graph carries a sentinel as well as a reduced branch.
	sp := prog.NewProgram()
	small := sp.AddBlock("main",
		ir.LOAD(ir.Ld, ir.R(1), ir.R(2), 0),
		ir.BRI(ir.Beq, ir.R(3), 0, "out"),
		ir.HALT(),
	)
	small.Superblock = true
	sp.AddBlock("out", ir.ALUI(ir.Add, ir.R(4), ir.R(1), 1), ir.HALT())
	smallLv, smallPv := dataflow.Compute(sp), alias.Analyze(sp)

	builds, reused := 0, 0
	for _, k := range kernels {
		for _, width := range []int{2, 4, 8} {
			for _, model := range []machine.Model{machine.Restricted, machine.General,
				machine.Sentinel, machine.SentinelStores, machine.Boosting} {
				for _, md := range []machine.Desc{machine.Base(width, model), machine.Base(width, model).WithRecovery()} {
					if md.Validate() != nil {
						continue // recovery does not apply to boosting
					}
					q, lv, pv, _, err := prepare(k.f, md)
					if err != nil {
						t.Fatal(err)
					}
					drainGraphPool()
					type freshPair struct{ afterBig, afterSmall *depgraph.Graph }
					fresh := make([]freshPair, len(q.Blocks))
					for i, b := range q.Blocks {
						fresh[i] = freshPair{depgraph.Build(b, lv, pv), depgraph.Build(b, lv, pv)}
					}
					for i, b := range q.Blocks {
						for _, c := range []struct {
							donor string
							b     *prog.Block
							lv    *dataflow.Liveness
							pv    *alias.Provenance
							want  *depgraph.Graph
						}{
							{"larger", big, bigLv, bigPv, fresh[i].afterBig},
							{"smaller", small, smallLv, smallPv, fresh[i].afterSmall},
						} {
							where := fmt.Sprintf("%s %v w%d recovery=%v block %q after a %s graph",
								k.name, md.Model, width, md.Recovery, b.Label, c.donor)
							donor := releaseDirty(c.b, c.lv, c.pv, dirtyMD)
							g := depgraph.Build(b, lv, pv)
							builds++
							if g == donor {
								reused++
							}
							if err := sameGraph(g, c.want); err != nil {
								t.Fatalf("%s, built: %v", where, err)
							}
							g.Reduce(md)
							c.want.Reduce(md)
							if err := sameGraph(g, c.want); err != nil {
								t.Fatalf("%s, reduced: %v", where, err)
							}
							g.Release()
						}
					}
				}
			}
		}
	}
	// The race detector makes sync.Pool drop a random share of releases, and
	// a goroutine may migrate between processors, so not every Build reuses
	// its donor; most must, or the comparison is vacuous.
	t.Logf("%d of %d builds reused the released graph", reused, builds)
	if reused < builds/2 {
		t.Fatalf("only %d of %d builds reused the released graph", reused, builds)
	}
}

// TestScheduleParallelMatchesSerial schedules every kernel from several
// goroutines at once, each walking the kernels in a different order, so
// pooled graphs move between concurrent schedules. Every listing must equal
// the serial one.
func TestScheduleParallelMatchesSerial(t *testing.T) {
	kernels := formKernels(t)
	mds := []machine.Desc{
		machine.Base(8, machine.SentinelStores),
		machine.Base(4, machine.Sentinel).WithRecovery(),
		machine.Base(8, machine.Boosting),
		machine.Base(2, machine.Restricted),
	}
	listing := func(k formedKernel, md machine.Desc) (string, error) {
		s, _, err := Schedule(k.f, md)
		if err != nil {
			return "", err
		}
		return asm.FormatScheduled(s), nil
	}
	want := make([][]string, len(kernels))
	for i, k := range kernels {
		for _, md := range mds {
			l, err := listing(k, md)
			if err != nil {
				t.Fatalf("%s %v: %v", k.name, md.Model, err)
			}
			want[i] = append(want[i], l)
		}
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range kernels {
				i := (j + 5*w) % len(kernels)
				for m, md := range mds {
					got, err := listing(kernels[i], md)
					if err == nil && got != want[i][m] {
						err = fmt.Errorf("listing differs from the serial one")
					}
					if err != nil {
						errs <- fmt.Errorf("worker %d, %s %v: %v", w, kernels[i].name, md.Model, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// prepare is prepareOwned on a clone of p, returning the clone: the block
// scheduler's inputs for one kernel, leaving p untouched.
func prepare(p *prog.Program, md machine.Desc) (*prog.Program, *dataflow.Liveness, *alias.Provenance, Stats, error) {
	p = p.Clone()
	lv, pv, stats, err := prepareOwned(p, md)
	if err != nil {
		return nil, nil, nil, stats, err
	}
	return p, lv, pv, stats, nil
}
