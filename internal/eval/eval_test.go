package eval

import (
	"strings"
	"testing"

	"sentinel/internal/machine"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

func bench(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	return b
}

// serialRun is the uncached serial path the Runner is checked against:
// benchmark b measured with Measure under every model at every width plus
// the issue-1 restricted base, speedups relative to that base.
func serialRun(b workload.Benchmark, models []machine.Model, widths []int) (*BenchResult, error) {
	base, err := Measure(b, machine.Base(1, machine.Restricted), superblock.Options{})
	if err != nil {
		return nil, err
	}
	base.Speedup = 1
	out := &BenchResult{Name: b.Name, Numeric: b.Numeric, Base: base, Cells: map[Key]Cell{}}
	for _, model := range models {
		for _, w := range widths {
			c, err := Measure(b, machine.Base(w, model), superblock.Options{})
			if err != nil {
				return nil, err
			}
			c.Speedup = float64(base.Cycles) / float64(c.Cycles)
			out.Cells[Key{model, w}] = c
		}
	}
	return out, nil
}

func TestMeasureVerifiesResults(t *testing.T) {
	c, err := Measure(bench(t, "wc"), machine.Base(4, machine.Sentinel), superblock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles <= 0 || c.Instrs <= 0 {
		t.Errorf("cell = %+v", c)
	}
}

func TestRunComputesSpeedups(t *testing.T) {
	r, err := serialRun(bench(t, "grep"),
		[]machine.Model{machine.Restricted, machine.Sentinel},
		[]int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Base.Cycles <= 0 {
		t.Fatal("no base measurement")
	}
	s8 := r.Speedup(machine.Sentinel, 8)
	r8 := r.Speedup(machine.Restricted, 8)
	if s8 <= 1 || r8 <= 1 {
		t.Errorf("speedups = S %.2f, R %.2f; both must exceed the issue-1 base", s8, r8)
	}
	if s8 <= r8 {
		t.Errorf("grep: sentinel (%.2f) must beat restricted (%.2f) at issue 8", s8, r8)
	}
}

func TestGroupHelpers(t *testing.T) {
	rs := []*BenchResult{
		{Name: "a", Numeric: false, Cells: map[Key]Cell{
			{machine.Sentinel, 8}:   {Speedup: 3.0},
			{machine.Restricted, 8}: {Speedup: 2.0},
		}},
		{Name: "b", Numeric: false, Cells: map[Key]Cell{
			{machine.Sentinel, 8}:   {Speedup: 2.0},
			{machine.Restricted, 8}: {Speedup: 2.0},
		}},
		{Name: "n", Numeric: true, Cells: map[Key]Cell{
			{machine.Sentinel, 8}:   {Speedup: 4.0},
			{machine.Restricted, 8}: {Speedup: 2.0},
		}},
	}
	if got := GroupAverage(rs, false, machine.Sentinel, 8); got != 2.5 {
		t.Errorf("non-numeric average = %v, want 2.5", got)
	}
	if got := GroupAverage(rs, true, machine.Sentinel, 8); got != 4.0 {
		t.Errorf("numeric average = %v, want 4.0", got)
	}
	// Improvements: a: +50%, b: 0% -> mean 25%.
	if got := GroupImprovement(rs, false, machine.Sentinel, machine.Restricted, 8); got != 25 {
		t.Errorf("improvement = %v, want 25", got)
	}
}

func TestFigureRendering(t *testing.T) {
	models := []machine.Model{machine.Restricted, machine.General,
		machine.Sentinel, machine.SentinelStores}
	var rs []*BenchResult
	for _, name := range []string{"grep", "matrix300"} {
		r, err := serialRun(bench(t, name), models, Widths)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	f4 := Figure4(rs)
	for _, want := range []string{"grep", "matrix300", "R@2", "S@8", "improvement"} {
		if !strings.Contains(f4, want) {
			t.Errorf("Figure4 missing %q:\n%s", want, f4)
		}
	}
	f5 := Figure5(rs)
	for _, want := range []string{"G@4", "T@8", "T over S"} {
		if !strings.Contains(f5, want) {
			t.Errorf("Figure5 missing %q:\n%s", want, f5)
		}
	}
	ov := SentinelOverheadTable(rs, 8)
	if !strings.Contains(ov, "grep") || !strings.Contains(ov, "checks") {
		t.Errorf("overhead table malformed:\n%s", ov)
	}
}

func TestTable3Rendering(t *testing.T) {
	s := Table3()
	for _, want := range []string{"Int ALU", "memory load", "FP divide", "10", "1 / 1 slot"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table3 missing %q:\n%s", want, s)
		}
	}
}

// TestHeadlineShapes asserts the paper's qualitative results hold on a
// representative subset (the full sweep runs in cmd/paperfigs and the
// benchmark harness).
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full compile+simulate sweep")
	}
	models := []machine.Model{machine.Restricted, machine.General,
		machine.Sentinel, machine.SentinelStores}
	get := func(name string) *BenchResult {
		r, err := serialRun(bench(t, name), models, []int{2, 8})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Load-dependent branches: sentinel clearly beats restricted at 8.
	for _, name := range []string{"wc", "lex", "grep", "tomcatv"} {
		r := get(name)
		if s, rr := r.Speedup(machine.Sentinel, 8), r.Speedup(machine.Restricted, 8); s < rr*1.15 {
			t.Errorf("%s: S@8 %.2f not clearly above R@8 %.2f", name, s, rr)
		}
	}
	// Few-branch numeric code: restricted is already close.
	for _, name := range []string{"fpppp", "matrix300"} {
		r := get(name)
		if s, rr := r.Speedup(machine.Sentinel, 8), r.Speedup(machine.Restricted, 8); s > rr*1.15 {
			t.Errorf("%s: S@8 %.2f should be close to R@8 %.2f (few branches)", name, s, rr)
		}
	}
	// Sentinel ~ general percolation at issue 8 (sentinels ride free slots).
	for _, name := range []string{"grep", "wc", "espresso"} {
		r := get(name)
		g, s := r.Speedup(machine.General, 8), r.Speedup(machine.Sentinel, 8)
		if s < g*0.97 {
			t.Errorf("%s: S@8 %.2f must be within 3%% of G@8 %.2f", name, s, g)
		}
	}
	// grep at issue 2: the paper's worst case for sentinel vs general.
	r := get("grep")
	if g2, s2 := r.Speedup(machine.General, 2), r.Speedup(machine.Sentinel, 2); s2 > g2 {
		t.Errorf("grep: S@2 %.2f should not beat G@2 %.2f (check slot pressure)", s2, g2)
	}
}

// TestSharingAblationDirection: disabling shared sentinels may only add
// checks, and may not speed programs up at issue 2.
func TestSharingAblationDirection(t *testing.T) {
	for _, name := range []string{"grep", "tomcatv"} {
		b := bench(t, name)
		shared, err := Measure(b, machine.Base(2, machine.Sentinel), superblock.Options{})
		if err != nil {
			t.Fatal(err)
		}
		noshare, err := Measure(b, machine.Base(2, machine.Sentinel).WithoutSharedSentinels(), superblock.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if noshare.Stats.Sentinels < shared.Stats.Sentinels {
			t.Errorf("%s: no-sharing must not insert fewer checks (%d vs %d)",
				name, noshare.Stats.Sentinels, shared.Stats.Sentinels)
		}
		if noshare.Cycles < shared.Cycles {
			t.Errorf("%s: no-sharing unexpectedly faster (%d vs %d cycles)",
				name, noshare.Cycles, shared.Cycles)
		}
	}
}

// TestFrontProfileAfterForm: the profile Front returns with Form describes
// the program as it was run, although formation rewrote that program in
// place: every edge count matches a run that formed nothing.
func TestFrontProfileAfterForm(t *testing.T) {
	for _, w := range workload.All() {
		p, m := w.Build()
		_, formed, err := Front(p, m, FrontOptions{Form: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		q, m := w.Build()
		_, plain, err := Front(q, m, FrontOptions{Reference: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		got, want := formed.Profile, plain.Profile
		for i := range want.Blocks {
			for j := range want.Blocks {
				if g, e := got.Edge(i, j), want.Edge(i, j); g != e {
					t.Fatalf("%s: Edge(%d, %d) = %d after formation, want %d", w.Name, i, j, g, e)
				}
			}
		}
	}
}
