package superblock

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// chainSource is n blocks, each a load and a branch taken to the block two
// ahead: one long hot path whose every step extends a trace.
func chainSource(n int) string {
	var b strings.Builder
	b.WriteString(".seg data 4096 64\nentry:\n    li   r1, 4096\n    li   r2, 1\n")
	for i := range n {
		target := "done"
		if i+2 < n {
			target = fmt.Sprintf("b%d", i+2)
		}
		fmt.Fprintf(&b, "b%d:\n    ld   r3, 0(r1)\n    blt  r3, r2, %s\n", i, target)
	}
	b.WriteString("done:\n    halt\n")
	return b.String()
}

// compile parses src, runs it for its profile, forms superblocks and
// schedules them. Beside the formation's own, it runs trace selection once
// more through a counting successor lister and returns the lists read.
func compile(t *testing.T, src string) (succReads int) {
	t.Helper()
	p, m, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p.Layout()
	ref, err := prog.Run(p, m, prog.Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	counted := func(dst []int32, i int) []int32 {
		succReads++
		return p.AppendSuccessors(dst, i)
	}
	selectTraces(p, ref.Profile, Options{}.WithDefaults(), counted)
	if _, _, err := core.ScheduleOwned(FormOwned(p, ref.Profile, Options{}), machine.Base(8, machine.Sentinel)); err != nil {
		t.Fatal(err)
	}
	return succReads
}

// TestCompileGrowthLinear checks that trace selection reads each block's
// successor list at most twice, at n and at 4n blocks: selection that
// scans every block at each trace step reads about n²/2 lists here. The
// whole compile's time at both sizes is logged, not bounded — a wall-clock
// ratio would depend on the host.
func TestCompileGrowthLinear(t *testing.T) {
	const n, runs = 2000, 3
	var best [2]time.Duration
	for k, blocks := range []int{n, 4 * n} {
		src := chainSource(blocks)
		best[k] = time.Duration(1<<63 - 1)
		var reads int
		for range runs {
			runtime.GC() // no run pays for an earlier run's garbage
			t0 := time.Now()
			reads = compile(t, src)
			best[k] = min(best[k], time.Since(t0))
			// The source has blocks chain blocks, entry and done.
			if limit := 2 * (blocks + 2); reads > limit {
				t.Fatalf("%d blocks: trace selection read %d successor lists, want at most %d", blocks, reads, limit)
			}
		}
		t.Logf("%d blocks: %d successor lists read; compile %v", blocks, reads, best[k])
	}
	t.Logf("compile time ratio %.2f for 4× the blocks", float64(best[1])/float64(best[0]))
}
