package eval

// The matrix wall pins sim.Run's whole Result over the cell matrix the
// server simulates: 17 kernels × 5 speculation models × issue 2/4/8 × the
// perfect, static and TAGE frontends. Each cell runs three times on its
// prepared (cached) schedule:
//
//   - full: the clean run a /v1/simulate with "full" performs;
//   - fault: the kernel's primary input segment paged out and no handler,
//     the run a fault-injected /v1/simulate performs: its error text and
//     the partial statistics the abort reports;
//   - repair: the same segment paged out, with a handler that pages it back
//     in and recovers, so the recovered exceptions and the restart path
//     are pinned too.
//
// Every SimStats field is rendered (the opcode mix sparsely), so a change
// to the simulator's issue loop that shifts any count, stall cause, tag,
// checksum or exception fails here. Regenerate after an *intentional*
// change with:
//
//	go test ./internal/eval/ -run TestMatrixWall -update

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// matrixFaultSegments is the fault study's primary-input preference order,
// the same list injectOne and the fleet benchmark's fault simulates use.
var matrixFaultSegments = []string{"text", "input", "src", "a", "heap", "cells", "x", "re", "b-data", "tokens"}

// matrixFaultBudget bounds the faulted runs, so that a model without tags
// that turns a paged-out load into garbage cannot run away. No cell comes
// near it (the longest run is about 40k instructions); the budget cut is
// pinned by sim's TestInstructionBudget.
const matrixFaultBudget = 2_000_000

// matrixLine renders one run: its error (if any) and every field of the
// Result, SimStats by reflection so a field added later is pinned too. A
// statistic left out of the line is zero.
func matrixLine(key string, res *sim.Result, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", key)
	if err != nil {
		fmt.Fprintf(&b, " err=%q", err.Error())
	}
	if res == nil {
		b.WriteByte('\n')
		return b.String()
	}
	fmt.Fprintf(&b, " cycles=%d instrs=%d stalls=%d out=%v memsum=%#x",
		res.Cycles, res.Instrs, res.Stalls, res.Out, res.MemSum)
	for _, e := range res.Exceptions {
		fmt.Fprintf(&b, " exc=[%v]", e)
	}
	sv := reflect.ValueOf(res.Stats)
	for i := 0; i < sv.NumField(); i++ {
		name, f := sv.Type().Field(i).Name, sv.Field(i)
		switch {
		case name == "OpMix":
			b.WriteString(" mix=")
			sep := ""
			for op, n := range res.Stats.OpMix {
				if n != 0 {
					fmt.Fprintf(&b, "%s%v:%d", sep, ir.Op(op), n)
					sep = ","
				}
			}
		case f.Kind() != reflect.Int64:
			panic("matrixLine cannot render SimStats." + name)
		case f.Int() != 0:
			fmt.Fprintf(&b, " %s=%d", name, f.Int())
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// TestMatrixWall pins the full, faulted and repaired runs of all 765 cells
// against the committed golden.
func TestMatrixWall(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulate matrix in -short mode")
	}
	r := NewRunner(0)
	var sb strings.Builder
	models := []machine.Model{machine.Restricted, machine.General, machine.Sentinel, machine.SentinelStores, machine.Boosting}
	for _, pred := range []machine.Predictor{machine.PredPerfect, machine.PredStatic, machine.PredTAGE} {
		for _, model := range models {
			for _, w := range workload.All() {
				for _, width := range []int{2, 4, 8} {
					md := machine.Base(width, model).WithPredictor(pred)
					key := CellKey{Bench: w.Name, MD: md}.String()
					p, err := r.PreparedCtx(context.Background(), w, md, superblock.Options{})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					res, err := sim.Run(p.Prog, md, p.Mem.Clone(), sim.Options{Index: p.Index})
					sb.WriteString(matrixLine(key+" full", res, err))

					seg := ""
					for _, s := range matrixFaultSegments {
						if p.Mem.Segment(s) != nil {
							seg = s
							break
						}
					}
					if seg == "" {
						t.Fatalf("%s: no fault segment", key)
					}
					m := p.Mem.Clone()
					m.Segment(seg).Present = false
					res, err = sim.Run(p.Prog, md, m, sim.Options{Index: p.Index, MaxInstrs: matrixFaultBudget})
					sb.WriteString(matrixLine(key+" fault:"+seg, res, err))

					m = p.Mem.Clone()
					s := m.Segment(seg)
					s.Present = false
					signals := 0
					res, err = sim.Run(p.Prog, md, m, sim.Options{
						Index:     p.Index,
						MaxInstrs: matrixFaultBudget,
						Handler: func(sim.Exception, *sim.Machine) bool {
							s.Present = true
							signals++
							return signals < 8
						},
					})
					sb.WriteString(matrixLine(key+" repair:"+seg, res, err))
				}
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "matrix_wall.txt"), []byte(sb.String()))
}
