package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sentinel/internal/asm"
	"sentinel/internal/machine"
	"sentinel/internal/obs"
	"sentinel/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenStats pins the exact text of `sentinelsim -workload cmp -stats`:
// the run report plus the deterministic stall-cause/sentinel-activity/op-mix
// breakdown. Regenerate intentionally with:
//
//	go test ./cmd/sentinelsim -run TestGoldenStats -update
func TestGoldenStats(t *testing.T) {
	b, ok := workload.ByName("cmp")
	if !ok {
		t.Fatal("workload cmp missing")
	}
	p, m := b.Build()
	var buf bytes.Buffer
	code, err := simulate(p, m, machine.Base(8, machine.Sentinel),
		runOpts{form: true, verify: true, stats: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	path := filepath.Join("testdata", "golden", "stats.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-stats output differs from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			path, buf.Bytes(), want)
	}
}

// TestTraceFileSchema drives the CLI's trace path end to end on a real
// workload under sentinel+stores and validates the file the user would
// open in Perfetto: JSON parses as Chrome trace-event format, slices cover
// every dynamic instruction, and flow events pair starts with ends.
func TestTraceFileSchema(t *testing.T) {
	b, ok := workload.ByName("cmp")
	if !ok {
		t.Fatal("workload cmp missing")
	}
	p, m := b.Build()
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(f)
	var buf bytes.Buffer
	code, err := simulate(p, m, machine.Base(8, machine.SentinelStores),
		runOpts{form: true, verify: true, trace: tr}, &buf)
	if cerr := tr.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil || code != 0 {
		t.Fatalf("simulate: code %d err %v", code, err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not Chrome trace-event JSON: %v", err)
	}
	phases := map[string]int{}
	width := 0
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
		if e.Ph == "X" && e.Tid > width {
			width = e.Tid
		}
	}
	if phases["X"] == 0 {
		t.Error("no duration slices in trace")
	}
	if width == 0 {
		t.Error("all slices on track 0: per-slot tracks missing from a width-8 schedule")
	}
	if phases["f"] > phases["s"] {
		t.Errorf("more flow ends (%d) than starts (%d)", phases["f"], phases["s"])
	}
}

// TestSimulateFaultWithoutReference: with formation and verification off
// no reference run is taken, so a program whose first load faults — one
// the reference interpreter refuses — still reaches the simulator, which
// reports the exception with exit code 3.
func TestSimulateFaultWithoutReference(t *testing.T) {
	const src = `
entry:
    li   r1, 4096
    ld   r5, 0(r1)
    jsr  putint, r5
    halt
`
	md := machine.Base(4, machine.Sentinel)
	p, m, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	code, err := simulate(p, m, md, runOpts{}, &buf)
	if err != nil || code != 3 {
		t.Fatalf("simulate: code %d err %v, want code 3 and no error", code, err)
	}
	if !strings.HasPrefix(buf.String(), "EXCEPTION: ") {
		t.Errorf("report does not open with the exception:\n%s", buf.String())
	}

	p, m, _ = asm.Parse(src)
	if _, err := simulate(p, m, md, runOpts{verify: true}, &buf); err == nil ||
		!strings.HasPrefix(err.Error(), "reference run: ") {
		t.Errorf("with -verify: err %v, want the reference run's failure", err)
	}
}
