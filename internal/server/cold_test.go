package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"sentinel/internal/ir"
	"sentinel/internal/machine"
	"sentinel/internal/prog"
)

// coldKernel is MIR assembly in the workload kernels' scheduling shape: a
// counted loop over an input array, a data-dependent branch splitting a
// biased hot path from a cold one, and loads, stores, divides and FP ops
// below the branches.
var coldKernel = func() string {
	const n = 64
	var b strings.Builder
	fmt.Fprintf(&b, ".seg in 4096 %d\n.seg out 36864 %d\n", (n+4)*8, (n+4)*8)
	for i := 0; i < n+4; i++ {
		fmt.Fprintf(&b, ".word %d %d\n", 4096+8*i, 1+(i*379)%1000)
	}
	fmt.Fprintf(&b, "entry:\n\tli r1, 4096\n\tli r2, %d\n\tli r3, 36864\n", 4096+8*n)
	b.WriteString(`	li r4, 0
	li r5, 0
	li r6, 150
	li r7, 1
	cvif f1, r7
	li r7, 3
	cvif f2, r7
	li r7, 0
	cvif f5, r7
loop:
	bge r1, r2, done
head:
	ld r10, 0(r1)
	ld r11, 8(r1)
	ld r12, 16(r1)
	add r1, r1, 8
	add r3, r3, 8
	blt r10, r6, cold
hot0:
	div r20, r4, r10
	add r5, r5, r20
	mul r21, r11, 3
	and r21, r21, 65535
	st r21, -8(r3)
	cvif f3, r12
	fmul f4, f3, f2
	fadd f5, f5, f4
	bge r12, 950, cold
hot1:
	xor r22, r10, r11
	add r4, r4, r22
	and r4, r4, 1048575
	sub r23, r11, r10
	st r23, 8(r3)
	cvif f3, r11
	fdiv f4, f3, f1
	fadd f5, f5, f4
	jmp loop
cold:
	shl r20, r10, 2
	add r5, r5, r20
	and r5, r5, 1048575
	jmp loop
done:
	cvfi r13, f5
	jsr putint, r4
	jsr putint, r5
	jsr putint, r13
	halt
`)
	return b.String()
}()

// coldScheduleBody is a /v1/schedule request for coldKernel under a comment
// naming run i, so every run is a distinct source that misses every cache.
func coldScheduleBody(tb testing.TB, i int) []byte {
	body, err := json.Marshal(map[string]any{
		"source": fmt.Sprintf("; cold run %d\n%s", i, coldKernel),
		"model":  "sentinel", "width": 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// coldScheduleLoop returns a function that serves the next distinct cold
// schedule request through the handler with a reused request object, and
// fails on any status but 200.
func coldScheduleLoop(tb testing.TB, s *Server, bodies [][]byte) func() {
	h := s.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
	req.Header.Set("Content-Type", "application/json")
	rb := &reqBody{}
	w := newBenchWriter()
	i := 0
	return func() {
		body := bodies[i%len(bodies)]
		i++
		rb.Reader.Reset(body)
		req.Body = rb
		req.ContentLength = int64(len(body))
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			tb.Fatalf("cold schedule: status %d", w.code)
		}
	}
}

// maxColdScheduleAllocs bounds the allocations of one cold /v1/schedule of
// coldKernel: decode, parse, reference run, superblock formation,
// scheduling and the encoded response. The count is 217 since every
// compile step draws its instructions from block slabs (DESIGN.md
// "Instruction storage") and the scheduler's per-block state is pooled;
// it was 734 before, and 1605 before the request codec, the owned-program
// formation and schedule and the allocation-free compile helpers.
const maxColdScheduleAllocs = 233

// TestColdScheduleAllocs pins the cold compile path's allocation count, a
// host-independent bound on the work a cold inline-source request does.
func TestColdScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	const runs = 20
	bodies := make([][]byte, runs+1) // AllocsPerRun adds one warm-up run
	for i := range bodies {
		bodies[i] = coldScheduleBody(t, i)
	}
	s := New(Config{Workers: 1})
	avg := testing.AllocsPerRun(runs, coldScheduleLoop(t, s, bodies))
	t.Logf("cold /v1/schedule: %.0f allocs/op", avg)
	if avg > maxColdScheduleAllocs {
		t.Fatalf("cold /v1/schedule = %.0f allocs/op, want <= %d", avg, maxColdScheduleAllocs)
	}
}

// BenchmarkServeScheduleCold is a cold /v1/schedule per op: a distinct
// inline source each time, through the whole compile pipeline.
func BenchmarkServeScheduleCold(b *testing.B) {
	bodies := make([][]byte, 512)
	for i := range bodies {
		bodies[i] = coldScheduleBody(b, i)
	}
	s := New(Config{Workers: 1, MaxSourcePrograms: 64, RespCacheEntries: 64})
	next := coldScheduleLoop(b, s, bodies)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		next()
	}
}

// maxCompiledBytesPerInstr bounds the heap a cached compiled program
// retains per instruction: the instruction itself (ir.Instr, 88 bytes),
// its pointer in the block's list, and each block's share of its header,
// label and slab rounding. It reads 108-114 with a slab per block, 139
// with an object per instruction and the source text pinned by the
// labels, and 164-168 when the slabs are carved from 128-instruction
// chunks shared across blocks and programs.
const maxCompiledBytesPerInstr = 132

// TestCompiledProgramFootprint bounds the heap a cached compiled program
// retains per instruction. A compile makes instructions in every step
// (parse, trace merging, tail duplication, unrolling, sentinel insertion)
// and each step's slab belongs to the one block it fills, so the slabs of
// the dropped intermediate blocks die with them; instruction storage
// shared across blocks or programs would keep them alive behind the
// survivors. The sources are dropped after compiling, so a program that
// pinned its source text would show here too.
func TestCompiledProgramFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes the heap")
	}
	md := machine.Base(8, machine.Sentinel)
	const n = 64
	progs := make([]*prog.Program, n)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	instrs := 0
	for i := range progs {
		c, err := compileSource(context.Background(), fmt.Sprintf("; footprint %d\n%s", i, coldKernel), md, true)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = c.prog
		for _, b := range c.prog.Blocks {
			instrs += len(b.Instrs)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(instrs)
	runtime.KeepAlive(progs)
	t.Logf("%d programs, %d instructions: %.1f bytes retained per instruction (ir.Instr is %d)",
		n, instrs, per, unsafe.Sizeof(ir.Instr{}))
	if per > maxCompiledBytesPerInstr {
		t.Fatalf("a compiled program retains %.1f bytes per instruction, want at most %d",
			per, maxCompiledBytesPerInstr)
	}
}
