package main

// The compile workload's program generator: seeded MIR assembly with the
// paper kernels' scheduling shape — a counted loop over an input array, a
// data-dependent branch splitting a biased hot path from a cold one, and
// loads, stores, divides and FP ops below the branches, which is the code
// sentinel scheduling exists to speculate. Every generated program halts in
// the reference interpreter without trapping: loads stay inside mapped
// segments, every divisor is an input element (all ≥ 1) or 1.0, and values
// are masked so nothing overflows into a trap.

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

const (
	genIn  = 0x1000 // input array base
	genOut = 0x9000 // output array base
)

// genProgram returns program number idx of the stream for seed. Distinct
// (seed, idx) pairs give distinct sources: the index is folded into the
// program's constants, and the shape is drawn from the pair's own stream.
// The induction updates sit in the loop head, above the data-dependent
// branch, and every path ends in its own back edge, as in the workload
// kernels.
func genProgram(seed uint64, idx uint64) string {
	r := rand.New(rand.NewPCG(seed, idx^0x9e3779b97f4a7c15))
	n := 48 + r.IntN(96) // loop trips
	thresh := 100 + r.IntN(200)
	var b strings.Builder
	fmt.Fprintf(&b, "; fleetbench program seed=%d idx=%d\n", seed, idx)
	fmt.Fprintf(&b, ".seg in %d %d\n.seg out %d %d\n", genIn, (n+4)*8, genOut, (n+4)*8)
	for i := 0; i < n+4; i++ {
		fmt.Fprintf(&b, ".word %d %d\n", genIn+8*i, 1+r.IntN(1000))
	}
	fmt.Fprintf(&b, "entry:\n\tli r1, %d\n\tli r2, %d\n\tli r3, %d\n", genIn, genIn+8*n, genOut)
	fmt.Fprintf(&b, "\tli r4, %d\n\tli r5, 0\n\tli r6, %d\n", idx%997, thresh)
	fmt.Fprintf(&b, "\tli r7, 1\n\tcvif f1, r7\n\tli r7, %d\n\tcvif f2, r7\n\tli r7, 0\n\tcvif f5, r7\n", 2+r.IntN(5))
	b.WriteString("loop:\n\tbge r1, r2, done\nhead:\n\tld r10, 0(r1)\n\tld r11, 8(r1)\n\tld r12, 16(r1)\n")
	b.WriteString("\tadd r1, r1, 8\n\tadd r3, r3, 8\n")
	// Offsets below are relative to the bumped pointers.
	g := &opGen{r: r, b: &b, base: -8}
	b.WriteString("\tblt r10, r6, cold\n")

	hot := 2 + r.IntN(3)
	g.stores = 2
	for i := 0; i < hot; i++ {
		fmt.Fprintf(&b, "hot%d:\n", i)
		g.block(4 + r.IntN(6))
		if i < hot-1 && r.IntN(2) == 0 {
			// An inner data-dependent branch, rarely taken, skipping the
			// rest of the hot path.
			fmt.Fprintf(&b, "\tbge r12, %d, cold\n", 900+r.IntN(100))
		}
	}
	b.WriteString("\tjmp loop\ncold:\n")
	g.stores = 1
	g.block(2 + r.IntN(4))
	b.WriteString("\tjmp loop\n")
	b.WriteString("done:\n\tcvfi r13, f5\n\tjsr putint, r4\n\tjsr putint, r5\n\tjsr putint, r13\n\thalt\n")
	return b.String()
}

// opGen emits straight-line ops. Register discipline: r10-r12 hold input
// elements (loads only, so always ≥ 1 and safe divisors), r20-r23 are ALU
// temporaries, r4/r5 accumulate, f3/f4 are FP temporaries, f5 accumulates.
type opGen struct {
	r    *rand.Rand
	b    *strings.Builder
	base int // displacement from r1/r3 to the current element
	// stores is how many more stores the current path may hold. The
	// kernels store once or twice per iteration; a path with many more,
	// once unrolled, can leave the sentinel+stores scheduler no order
	// that keeps each speculative store within a store buffer of its
	// confirm, which it reports as a program error.
	stores int
}

// store emits a store of register t, if the path's budget allows one, and
// otherwise folds t into an accumulator.
func (g *opGen) store(t, off int) {
	if g.stores == 0 {
		fmt.Fprintf(g.b, "\tadd r5, r5, r%d\n\tand r5, r5, 1048575\n", t)
		return
	}
	g.stores--
	fmt.Fprintf(g.b, "\tst r%d, %d(r3)\n", t, off)
}

func (g *opGen) block(ops int) {
	for i := 0; i < ops; i++ {
		t := 20 + g.r.IntN(4)
		switch g.r.IntN(8) {
		case 0:
			fmt.Fprintf(g.b, "\tld r12, %d(r1)\n", g.base+8*g.r.IntN(4))
		case 1:
			fmt.Fprintf(g.b, "\tdiv r%d, r4, r1%d\n", t, g.r.IntN(3))
			fmt.Fprintf(g.b, "\tadd r5, r5, r%d\n", t)
		case 2:
			fmt.Fprintf(g.b, "\tmul r%d, r1%d, %d\n", t, g.r.IntN(2), 1+g.r.IntN(9))
			fmt.Fprintf(g.b, "\tand r%d, r%d, 65535\n", t, t)
			g.store(t, g.base+8*g.r.IntN(2))
		case 3:
			fmt.Fprintf(g.b, "\tcvif f3, r1%d\n\tfmul f4, f3, f2\n\tfadd f5, f5, f4\n", g.r.IntN(3))
		case 4:
			fmt.Fprintf(g.b, "\tcvif f3, r1%d\n\tfdiv f4, f3, f1\n\tfadd f5, f5, f4\n", g.r.IntN(3))
		case 5:
			fmt.Fprintf(g.b, "\txor r%d, r10, r11\n\tadd r4, r4, r%d\n\tand r4, r4, 1048575\n", t, t)
		case 6:
			fmt.Fprintf(g.b, "\tsub r%d, r11, r10\n", t)
			g.store(t, g.base+16)
		default:
			fmt.Fprintf(g.b, "\tshl r%d, r10, %d\n\tadd r5, r5, r%d\n\tand r5, r5, 1048575\n", t, 1+g.r.IntN(3), t)
		}
	}
}
