// Package superblock implements profile-driven superblock formation
// (Chang et al., "IMPACT", ISCA 1991; §2.1 of the sentinel paper).
//
// A superblock is a block of instructions in which control may only enter
// from the top but may leave at one or more exit points. Formation proceeds
// in three steps:
//
//  1. Trace selection: starting from the hottest unvisited block, grow a
//     trace along the most likely control-flow edges.
//  2. Tail duplication: every trace block other than the head is duplicated
//     so that side entrances into the middle of the trace are redirected to
//     the duplicates, leaving the merged superblock single-entry.
//  3. Loop unrolling: a superblock whose terminal control transfer is a
//     likely back edge to its own head is unrolled to expose cross-iteration
//     instruction-level parallelism.
package superblock

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"sentinel/internal/dataflow"
	"sentinel/internal/ir"
	"sentinel/internal/prog"
)

// Options tunes formation.
type Options struct {
	// MinProb is the minimum successor-edge probability required to extend
	// a trace (default 0.60).
	MinProb float64
	// MinCount is the minimum profiled execution count for a block to seed
	// or join a trace (default 1).
	MinCount int64
	// Unroll is the replication factor applied to self-loop superblocks
	// whose back edge has probability >= MinProb (default 4; 1 disables).
	Unroll int
	// MaxInstrs caps the size of a formed superblock, bounding both trace
	// growth and unrolling (default 220).
	MaxInstrs int
}

// WithDefaults returns o with unset fields replaced by the documented
// defaults. Two Options values that normalize to the same WithDefaults
// result configure identical formations; the evaluation runner relies on
// this to key its formation cache.
func (o Options) WithDefaults() Options {
	if o.MinProb == 0 {
		o.MinProb = 0.60
	}
	if o.MinCount == 0 {
		o.MinCount = 1
	}
	if o.Unroll == 0 {
		o.Unroll = 4
	}
	if o.MaxInstrs == 0 {
		o.MaxInstrs = 220
	}
	return o
}

// Form returns a new program in which hot traces of p have been merged into
// superblocks. p is not modified. p must be laid out and the profile must
// come from a run of p. Form only reads p and prof, so concurrent
// formations may share both.
func Form(p *prog.Program, prof *prog.Profile, opts Options) *prog.Program {
	return FormOwned(p.Clone(), prof, opts)
}

// FormOwned is Form for a program the caller owns and gives up: p itself
// is rewritten, without Form's copy, and its blocks and instructions end
// up in the result. Nothing else may hold p. The result is laid out.
func FormOwned(p *prog.Program, prof *prog.Profile, opts Options) *prog.Program {
	opts = opts.WithDefaults()
	scratch := scratchPool.Get().(*[]ir.Instr)
	defer putScratch(scratch)

	traces := selectTraces(p, prof, opts)
	n := len(p.Blocks)
	// Per block of p: its trace's head (-1 outside every trace); a head's
	// superblock and last trace block; any other trace block's duplicate,
	// to which references entering the middle of its trace are redirected.
	head, last := make([]int32, n), make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	merged, dup := make([]*prog.Block, n), make([]*prog.Block, n)
	var dupOf []int32
	for _, tr := range traces {
		merged[tr[0]], last[tr[0]] = mergeTrace(p, prof, tr, scratch), tr[len(tr)-1]
		for _, i := range tr {
			head[i] = tr[0]
		}
		for _, i := range tr[1:] {
			dup[i] = p.Blocks[i].Clone()
			dup[i].Label += ".dup"
			dupOf = append(dupOf, i)
		}
	}
	// fallthroughTo is the label p's block i reaches when it does not
	// transfer control, mapped through duplication, or "".
	fallthroughTo := func(i int32) string {
		if !p.FallsThrough(int(i)) {
			return ""
		}
		if d := dup[i+1]; d != nil {
			return d.Label
		}
		return p.Blocks[i+1].Label
	}

	// Assemble the new program: original order with trace members replaced
	// by their superblock at the head position; duplicates appended. The
	// duplicate of each trace is a contiguous chain in original trace order,
	// so intra-trace fall-throughs keep working. want[k] is the label block
	// k must reach when it does not transfer control: its original
	// fall-through, a superblock's that of its last trace block.
	np := prog.NewProgram()
	np.Entry = p.Entry
	var want []string
	for i, b := range p.Blocks {
		switch h := head[i]; {
		case h < 0:
			np.Blocks = append(np.Blocks, b)
			want = append(want, fallthroughTo(int32(i)))
		case int(h) == i:
			np.Blocks = append(np.Blocks, merged[i])
			want = append(want, fallthroughTo(last[i]))
		}
	}
	for _, i := range dupOf {
		np.Blocks = append(np.Blocks, dup[i])
		want = append(want, fallthroughTo(i))
	}
	np.Reindex()

	// Redirect every remaining reference to a duplicated (mid-trace) block
	// to its duplicate: side exits of superblocks, other blocks, and the
	// duplicates themselves. A reference to a trace HEAD keeps targeting the
	// superblock (control enters from the top, which is legal). Targets are
	// still resolved against p here.
	for _, b := range np.Blocks {
		for _, in := range b.Instrs {
			if t := in.TargetIndex; t >= 0 && dup[t] != nil && (ir.IsBranch(in.Op) || in.Op == ir.Jmp) {
				in.Target = dup[t].Label
			}
		}
	}

	// Unroll self-loop superblocks. Must happen before fall-through
	// patching so the terminal back edge is still the last instruction.
	// Counted loops (single induction test against a constant bound) are
	// unrolled with the interior tests removed and a remainder loop
	// appended; other self-loops keep per-copy side exits. Both forms apply
	// register expansion: iteration-local registers get a fresh name per
	// copy so reuse does not serialize the unrolled iterations.
	//
	// Liveness is computed over a view with every intended fall-through made
	// explicit: absorbing trace blocks moved layout successors, and a block
	// falling into a now-absorbed trace block (a cold path entering a join)
	// would otherwise appear to flow into whatever block follows it, hiding
	// the registers its real successor reads — and the compensation that the
	// unrolled copies' side exits owe it. Laying the view out resolves every
	// target against the new order, which the unrolling reads.
	v := withFallthroughs(np, want)
	v.Layout()
	lv := dataflow.Compute(v)
	used := dataflow.UsedRegs(np)
	var blocks []*prog.Block
	var wantAfter []string
	for k, b := range np.Blocks {
		if !b.Superblock {
			blocks = append(blocks, b)
			wantAfter = append(wantAfter, want[k])
			continue
		}
		if main, rem, ok := unrollCounted(b, k, opts, lv, &used, scratch); ok {
			blocks = append(blocks, main, rem)
			wantAfter = append(wantAfter, want[k], "")
			continue
		}
		out := unroll(b, k, want[k], int32(v.Index(want[k])), opts, lv, &used, scratch)
		blocks = append(blocks, out...)
		wantAfter = append(wantAfter, want[k])
		for range out[1:] {
			wantAfter = append(wantAfter, "")
		}
	}
	np.Blocks = blocks
	np.Reindex()

	// Make fall-through paths explicit wherever the new layout broke them:
	// absorbing trace blocks and appending duplicates changes every block's
	// layout successor, so any block whose intended fall-through no longer
	// follows it gets an explicit jump.
	for i, b := range np.Blocks {
		if w := missingFallthrough(np, i, wantAfter[i]); w != "" {
			ins := make([]*ir.Instr, len(b.Instrs)+1)
			copy(ins, b.Instrs)
			ins[len(b.Instrs)] = ir.JMP(w)
			b.Instrs = ins
		}
	}
	np.Layout()
	return np
}

// scratchPool recycles the instruction scratch in which formation builds
// merged and unrolled bodies before copying each into its block's slab.
var scratchPool = sync.Pool{New: func() any { return new([]ir.Instr) }}

// putScratch clears scratch, so the pool pins no program's strings, and
// returns it to the pool unless it grew past any default-sized superblock.
func putScratch(scratch *[]ir.Instr) {
	s := (*scratch)[:cap(*scratch)]
	if len(s) > 4096 {
		return
	}
	clear(s)
	*scratch = s[:0]
	scratchPool.Put(scratch)
}

// missingFallthrough returns want, the label block i must reach when it
// does not transfer control, when that block no longer follows it in
// layout, or "".
func missingFallthrough(p *prog.Program, i int, want string) string {
	if want == "" || (i+1 < len(p.Blocks) && p.Blocks[i+1].Label == want) {
		return ""
	}
	return want
}

// withFallthroughs returns a shallow view of p in which every block whose
// intended fall-through want[i] no longer follows it ends in an explicit
// jump, for analyses that must see the control flow the patched program
// will have. p's blocks are not modified.
func withFallthroughs(p *prog.Program, want []string) *prog.Program {
	v := &prog.Program{Entry: p.Entry, Blocks: make([]*prog.Block, len(p.Blocks))}
	for i, b := range p.Blocks {
		v.Blocks[i] = b
		if w := missingFallthrough(p, i, want[i]); w != "" {
			c := *b
			c.Instrs = append(b.Instrs[:len(b.Instrs):len(b.Instrs)], ir.JMP(w))
			v.Blocks[i] = &c
		}
	}
	v.Reindex()
	return v
}

// selectTraces grows traces of block positions from hot seeds along likely
// edges.
func selectTraces(p *prog.Program, prof *prog.Profile, opts Options) [][]int32 {
	n := len(p.Blocks)
	visited := make([]bool, n)
	var traces [][]int32
	entry := int32(p.Index(p.Entry))

	// Seeds in decreasing hotness; stable for equal counts by program order.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && prof.Blocks[order[j]] > prof.Blocks[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	for _, seed := range order {
		if visited[seed] || prof.Blocks[seed] < opts.MinCount {
			continue
		}
		tr := []int32{seed}
		visited[seed] = true
		size := len(p.Blocks[seed].Instrs)
		cur := seed
		for {
			next, ok := bestSuccessor(p, prof, cur, opts)
			if !ok || visited[next] || next == entry {
				break
			}
			nb := p.Blocks[next]
			if size+len(nb.Instrs) > opts.MaxInstrs {
				break
			}
			// A trace block must reach the next via its terminal transfer
			// only; joining a block whose hottest predecessor is elsewhere
			// wastes duplication.
			if !mutualMostLikely(p, prof, cur, next) {
				break
			}
			tr = append(tr, next)
			visited[next] = true
			size += len(nb.Instrs)
			cur = next
		}
		if len(tr) > 1 || isLoopCandidate(prof, seed, opts) {
			traces = append(traces, tr)
		}
	}
	return traces
}

// bestSuccessor returns cur's most frequent successor when its edge
// probability meets the threshold.
func bestSuccessor(p *prog.Program, prof *prog.Profile, cur int32, opts Options) (int32, bool) {
	total := prof.Blocks[cur]
	if total < opts.MinCount {
		return -1, false
	}
	best := int32(-1)
	var bestN int64 = -1
	var succ [4]int32
	for _, s := range p.AppendSuccessors(succ[:0], int(cur)) {
		if n := prof.Edge(int(cur), int(s)); n > bestN {
			best, bestN = s, n
		}
	}
	if bestN <= 0 || float64(bestN)/float64(total) < opts.MinProb {
		return -1, false
	}
	return best, true
}

// mutualMostLikely reports whether from is also next's most frequent
// predecessor.
func mutualMostLikely(p *prog.Program, prof *prog.Profile, from, next int32) bool {
	in := prof.Edge(int(from), int(next))
	var succ [4]int32
	for b := range p.Blocks {
		if b == int(from) {
			continue
		}
		for _, s := range p.AppendSuccessors(succ[:0], b) {
			if s == next && prof.Edge(b, int(next)) > in {
				return false
			}
		}
	}
	return true
}

// isLoopCandidate reports whether a single-block trace is a hot self-loop
// worth turning into a superblock (so it can be unrolled).
func isLoopCandidate(prof *prog.Profile, b int32, opts Options) bool {
	n := prof.Blocks[b]
	if n < opts.MinCount {
		return false
	}
	back := prof.Edge(int(b), int(b))
	return back > 0 && float64(back)/float64(n) >= opts.MinProb
}

// invertBranch returns the opposite condition.
func invertBranch(op ir.Op) ir.Op {
	switch op {
	case ir.Beq:
		return ir.Bne
	case ir.Bne:
		return ir.Beq
	case ir.Blt:
		return ir.Bge
	case ir.Bge:
		return ir.Blt
	}
	panic("superblock: invertBranch on " + op.String())
}

// mergeTrace concatenates the trace blocks into one superblock, flipping
// branches so that staying on the trace is always the fall-through path and
// side exits are the taken paths. The merged body is built in scratch and
// copied into the superblock's own slab.
func mergeTrace(p *prog.Program, prof *prog.Profile, tr []int32, scratch *[]ir.Instr) *prog.Block {
	sb := &prog.Block{
		Label:      p.Blocks[tr[0]].Label,
		Superblock: true,
		WeightHint: prof.Blocks[tr[0]],
	}
	vals := (*scratch)[:0]
	for ti, bi := range tr {
		b := p.Blocks[bi]
		last := ti == len(tr)-1
		for ii, in := range b.Instrs {
			c := *in
			terminal := ii == len(b.Instrs)-1
			if !last && terminal {
				next := tr[ti+1]
				switch {
				case c.Op == ir.Jmp && c.TargetIndex == next:
					continue // interior unconditional transfer: drop
				case ir.IsBranch(c.Op) && c.TargetIndex == next:
					// Trace follows the taken edge: invert so the trace is
					// the fall-through and the old fall-through becomes the
					// side exit.
					if !p.FallsThrough(int(bi)) {
						panic(fmt.Sprintf("superblock: block %q has taken-edge trace successor but no fall-through", b.Label))
					}
					c.Op = invertBranch(c.Op)
					c.Target, c.TargetIndex = p.Blocks[bi+1].Label, bi+1
				case ir.IsBranch(c.Op):
					// Trace follows the fall-through; branch is a side exit
					// and stays as is.
				default:
					// Plain fall-through into the next trace block.
				}
			}
			vals = append(vals, c)
		}
	}
	sb.Instrs = own(vals)
	*scratch = vals
	return sb
}

// own copies the instructions of parts, in order, into one new block slab
// (prog.Slab) and returns the block's instruction list.
func own(parts ...[]ir.Instr) []*ir.Instr {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	slab, ptrs := prog.Slab(n)
	off := 0
	for _, part := range parts {
		off += copy(slab[off:], part)
	}
	return ptrs
}

// unroll replicates a self-loop superblock body. The back edge of every
// copy but the last is inverted into a side exit targeting the loop's
// fall-through successor. Iteration-local registers and induction variables
// are expanded (renamed per copy) so register reuse does not serialize the
// unrolled iterations; the architectural values expected by exit paths are
// restored by per-exit compensation stubs, keeping the hot path free of
// maintenance moves (the superblock compensation-code technique).
//
// The copies are values in scratch, rewritten there, and copied into the
// unrolled block's slab once they are final; each stub gets a slab of its
// own.
func unroll(sb *prog.Block, k int, exitLabel string, exitIdx int32, opts Options, lv *dataflow.Liveness, used *dataflow.RegSet, scratch *[]ir.Instr) []*prog.Block {
	if opts.Unroll <= 1 || len(sb.Instrs) == 0 {
		return []*prog.Block{sb}
	}
	last := sb.Instrs[len(sb.Instrs)-1]
	isBack := (ir.IsBranch(last.Op) || last.Op == ir.Jmp) && last.Target == sb.Label
	if !isBack {
		return []*prog.Block{sb}
	}
	factor := opts.Unroll
	for factor > 1 && len(sb.Instrs)*factor > opts.MaxInstrs {
		factor--
	}
	if factor <= 1 {
		return []*prog.Block{sb}
	}
	if ir.IsBranch(last.Op) && exitLabel == "" {
		return []*prog.Block{sb} // conditional back edge with nowhere to fall through
	}
	body := sb.Instrs[:len(sb.Instrs)-1]
	vals := (*scratch)[:0]
	ends := make([]int, factor)
	for k := 0; k < factor; k++ {
		for _, in := range body {
			vals = append(vals, *in)
		}
		if k < factor-1 {
			if ir.IsBranch(last.Op) {
				exit := *last
				exit.Op = invertBranch(exit.Op)
				exit.Target, exit.TargetIndex = exitLabel, exitIdx
				vals = append(vals, exit)
			}
			// An unconditional back edge just flows into the next copy.
		} else {
			vals = append(vals, *last)
		}
		ends[k] = len(vals)
	}
	*scratch = vals
	copies := make([][]ir.Instr, factor)
	cutCopies(copies, vals, ends)
	recs := expandInductions(nil, copies, used)
	recs = expandLocals(recs, int32(k), copies, lv, used)
	blocks := buildExitStubs(make([]*prog.Block, 1, 1+len(recs)), sb.Label, copies, recs, lv)
	insertFallthroughMovs(copies, recs, exitIdx, lv)
	blocks[0] = &prog.Block{Label: sb.Label, Superblock: true, WeightHint: sb.WeightHint,
		Instrs: own(copies...)}
	return blocks
}

// cutCopies splits vals at ends into copies, the per-copy views the
// expansions rewrite. Every view but the last has its capacity clamped;
// the last one, which alone gains moves, may grow into vals' spare
// capacity.
func cutCopies(copies [][]ir.Instr, vals []ir.Instr, ends []int) {
	start := 0
	for k, end := range ends[:len(ends)-1] {
		copies[k] = vals[start:end:end]
		start = end
	}
	copies[len(copies)-1] = vals[start:ends[len(ends)-1]]
}

// unrollCounted unrolls a counted self-loop superblock — the IMPACT-style
// transformation that leaves numeric inner loops with "few conditional
// branches" (§5.2). The pattern is:
//
//	L:  bge rI, N, exit     (immediate bound, test at the top)
//	    ...body, exactly one "add rI, rI, C" (C > 0), no other control...
//	    jmp L
//
// which becomes an unrolled main loop guarded by a single adjusted test,
// plus a remainder loop with the original body:
//
//	L:      bge rI, N-(U-1)*C, L.rem
//	        body x U            (interior tests removed)
//	        jmp L
//	L.rem:  bge rI, N, exit
//	        body
//	        jmp L.rem
func unrollCounted(sb *prog.Block, k int, opts Options, lv *dataflow.Liveness, used *dataflow.RegSet, scratch *[]ir.Instr) (main, rem *prog.Block, ok bool) {
	if opts.Unroll <= 1 || len(sb.Instrs) < 3 {
		return nil, nil, false
	}
	test := sb.Instrs[0]
	last := sb.Instrs[len(sb.Instrs)-1]
	if test.Op != ir.Bge || test.Src2.Valid() || last.Op != ir.Jmp || last.Target != sb.Label {
		return nil, nil, false
	}
	rI := test.Src1
	body := sb.Instrs[1 : len(sb.Instrs)-1]
	var step int64
	incs := 0
	for _, in := range body {
		if ir.IsControl(in.Op) {
			return nil, nil, false // data-dependent exits: not a plain counted loop
		}
		if d, def := in.Def(); def && d == rI {
			if in.Op != ir.Add || in.Src1 != rI || in.Src2.Valid() || in.Imm <= 0 {
				return nil, nil, false
			}
			step = in.Imm
			incs++
		}
	}
	if incs != 1 {
		return nil, nil, false
	}
	factor := opts.Unroll
	for factor > 1 && len(body)*factor+2 > opts.MaxInstrs {
		factor--
	}
	if factor <= 1 {
		return nil, nil, false
	}

	remLabel := sb.Label + ".rem"
	guard := *test
	guard.Imm = test.Imm - int64(factor-1)*step
	guard.Target = remLabel

	vals := (*scratch)[:0]
	ends := make([]int, factor)
	for k := range ends {
		for _, in := range body {
			vals = append(vals, *in)
		}
		ends[k] = len(vals)
	}
	*scratch = vals
	// parts is the main loop: the guard, the copies, the back edge.
	parts := make([][]ir.Instr, factor+2)
	copies := parts[1 : factor+1]
	cutCopies(copies, vals, ends)
	expandInductions(nil, copies, used)
	expandLocals(nil, int32(k), copies, lv, used)
	parts[0] = []ir.Instr{guard}
	parts[factor+1] = []ir.Instr{*ir.JMP(sb.Label)}
	main = &prog.Block{Label: sb.Label, Superblock: true, WeightHint: sb.WeightHint,
		Instrs: own(parts...)}

	rem = &prog.Block{Label: remLabel, Superblock: true, WeightHint: sb.WeightHint}
	var slab []ir.Instr
	slab, rem.Instrs = prog.Slab(len(body) + 2)
	slab[0] = *test
	for i, in := range body {
		slab[i+1] = *in
	}
	slab[len(slab)-1] = *ir.JMP(remLabel)
	return main, rem, true
}

// renameRec records how one architectural register was expanded across the
// unrolled copies, so that exit compensation stubs can restore it.
type renameRec struct {
	arch      ir.Reg
	induction bool
	// names: for inductions, len(copies)+1 registers with names[0] = arch
	// (copy k computes names[k+1] = names[k] + C); for locals, one fresh
	// register per copy.
	names []ir.Reg
	// pos[k] is the position within copies[k] of the induction increment,
	// or of the local's first definition.
	pos []int
}

// nameAt returns the register holding arch's value just before position i
// of copy k executes.
func (r *renameRec) nameAt(k, i int) ir.Reg {
	if r.induction {
		if i <= r.pos[k] {
			return r.names[k]
		}
		return r.names[k+1]
	}
	if i > r.pos[k] {
		return r.names[k]
	}
	if k > 0 {
		return r.names[k-1]
	}
	return r.arch
}

// physSlots is the number of register slots (ir.Reg.Index).
const physSlots = ir.NumIntRegs + ir.NumFPRegs

// expandInductions applies the paper's renaming transformation (§3.7
// footnote 4) to loop induction variables in an unrolled superblock: an
// increment "add rI, rI, C" is split into an addition writing a fresh
// register per copy,
//
//	copy k:  add a[k+1], a[k], C        (a[0] = rI)
//
// with every use of rI in copy k renamed to a[k] (before the increment) or
// a[k+1] (after it). The fresh additions are dead at every side exit, so
// the whole address chain can be hoisted to the top of the block; a single
// move at the end of the last copy maintains the architectural register for
// the back edge, and side exits are repaired by compensation stubs built
// from the records appended to recs. Pure accumulators (used by nothing but
// their own increment) are left alone: expansion could only cost slots.
func expandInductions(recs []renameRec, copies [][]ir.Instr, used *dataflow.RegSet) []renameRec {
	if len(copies) < 2 {
		return recs
	}
	proto := copies[0]
	// Per register slot: its definitions in the prototype copy, and the
	// position+1 of its last increment (0 for none).
	var defCount, addPos [physSlots]int32
	for i := range proto {
		in := &proto[i]
		if d, ok := in.Def(); ok {
			defCount[d.Index()]++
			if in.Op == ir.Add && !in.Src2.Valid() && in.Src1 == d {
				addPos[d.Index()] = int32(i) + 1
			}
		}
	}
	// Slot order is class, then number: cands comes out sorted.
	var candBuf [physSlots]ir.Reg
	cands := candBuf[:0]
	for s := range addPos {
		if addPos[s] == 0 || defCount[s] != 1 {
			continue
		}
		r := proto[addPos[s]-1].Dest
		pos := int(addPos[s] - 1)
		for i := range proto {
			if i == pos {
				continue
			}
			if u1, u2 := proto[i].Uses2(); u1 == r || u2 == r {
				cands = append(cands, r)
				break
			}
		}
	}
	if len(cands) == 0 {
		return recs
	}
	nc := len(copies)
	names := make([]ir.Reg, len(cands)*(nc+1))
	posBack := make([]int, len(cands)*nc)
	for ci, r := range cands {
		names := names[ci*(nc+1) : (ci+1)*(nc+1) : (ci+1)*(nc+1)]
		names[0] = r
		ok := true
		for k := 1; k <= nc; k++ {
			if names[k], ok = used.AllocFree(r.Class); !ok {
				break
			}
		}
		if !ok {
			return recs // register file exhausted
		}
		rec := renameRec{arch: r, induction: true, names: names, pos: posBack[ci*nc : (ci+1)*nc : (ci+1)*nc]}
		for k := range copies {
			pos := -1
			for i := range copies[k] {
				in := &copies[k][i]
				if in.Op == ir.Add && !in.Src2.Valid() && in.Dest == r && in.Src1 == r {
					pos = i
					break
				}
			}
			if pos < 0 {
				continue
			}
			rec.pos[k] = pos
			cur, next := names[k], names[k+1]
			for i := range copies[k] {
				in := &copies[k][i]
				switch {
				case i == pos:
					in.Dest, in.Src1 = next, cur
				case i < pos:
					renameUse(in, r, cur)
				default:
					renameUse(in, r, next)
				}
			}
			if k == nc-1 {
				// Maintain the architectural register for the back edge
				// and the fall-through exit.
				copies[k] = slices.Insert(copies[k], pos+1, *ir.MOV(r, next))
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

func renameUse(in *ir.Instr, from, to ir.Reg) {
	if in.Src1 == from {
		in.Src1 = to
	}
	if in.Src2 == from {
		in.Src2 = to
	}
}

// expandLocals renames iteration-local registers to a fresh register per
// unrolled copy ("register expansion"): a register qualifies when its first
// reference is a definition in EVERY copy (it carries nothing between
// iterations) and it is not live around the back edge. Values that side-exit
// paths expect under the original name are restored by compensation stubs
// built from the records appended to recs (registers needed by no exit get
// no record).
func expandLocals(recs []renameRec, head int32, copies [][]ir.Instr, lv *dataflow.Liveness, used *dataflow.RegSet) []renameRec {
	if len(copies) < 2 {
		return recs
	}
	proto := copies[0]
	// firstIsDef collects the registers whose first reference is a
	// definition in every copy.
	var firstIsDef dataflow.RegSet
	for ci, c := range copies {
		var seen, local dataflow.RegSet
		for i := range c {
			in := &c[i]
			u1, u2 := in.Uses2()
			for _, u := range [2]ir.Reg{u1, u2} {
				if u.Valid() {
					seen.Add(u)
				}
			}
			if d, def := in.Def(); def && !seen.Has(d) {
				seen.Add(d)
				local.Add(d)
			}
		}
		if ci == 0 {
			firstIsDef = local
		} else {
			firstIsDef = firstIsDef.Intersect(local)
		}
	}
	loopIn := lv.In[head]
	var regBuf, candBuf [physSlots]ir.Reg
	cands := candBuf[:0]
	var neededByExit dataflow.RegSet
	// AppendRegs enumerates by class, then number: cands comes out sorted.
	for _, r := range firstIsDef.Diff(loopIn).AppendRegs(regBuf[:0]) {
		defs := 0
		for i := range proto {
			if d, def := proto[i].Def(); def && d == r {
				defs++
			}
		}
		liveAtExit := false
		for i := range proto {
			if lv.LiveAtTaken(&proto[i]).Has(r) {
				liveAtExit = true
				break
			}
		}
		if liveAtExit && defs != 1 {
			// Compensation is only well-defined for a single definition.
			continue
		}
		if liveAtExit {
			neededByExit.Add(r)
		}
		cands = append(cands, r)
	}
	if len(cands) == 0 {
		return recs
	}
	nc := len(copies)
	names := make([]ir.Reg, len(cands)*nc)
	posBack := make([]int, len(cands)*nc)
	for ci, r := range cands {
		rec := renameRec{arch: r, names: names[ci*nc : (ci+1)*nc : (ci+1)*nc],
			pos: posBack[ci*nc : (ci+1)*nc : (ci+1)*nc]}
		ok := true
		for k := range copies {
			if rec.names[k], ok = used.AllocFree(r.Class); !ok {
				return recs // register file exhausted
			}
		}
		for k := range copies {
			rec.pos[k] = -1
			for i := range copies[k] {
				in := &copies[k][i]
				if d, def := in.Def(); def && d == r && rec.pos[k] < 0 {
					rec.pos[k] = i
				}
				if in.Dest == r {
					in.Dest = rec.names[k]
				}
				if in.Src1 == r {
					in.Src1 = rec.names[k]
				}
				if in.Src2 == r {
					in.Src2 = rec.names[k]
				}
			}
		}
		if neededByExit.Has(r) {
			recs = append(recs, rec)
		}
	}
	return recs
}

// buildExitStubs creates one compensation block per side exit that needs
// architectural values restored, appended to stubs: the exit branch is
// redirected to a stub holding the moves, keeping the hot path free of
// maintenance code. Each stub's instructions are one slab of their own.
func buildExitStubs(stubs []*prog.Block, label string, copies [][]ir.Instr, recs []renameRec, lv *dataflow.Liveness) []*prog.Block {
	var movBuf [8]ir.Instr
	n := 0
	for k := range copies {
		for i := range copies[k] {
			in := &copies[k][i]
			if !ir.IsBranch(in.Op) || in.Target == label {
				continue
			}
			movs := appendCompensationMovs(movBuf[:0], recs, k, i, lv.LiveAtTaken(in))
			if len(movs) == 0 {
				continue
			}
			stub := &prog.Block{Label: label + ".x" + strconv.Itoa(n)}
			n++
			stub.Instrs = own(movs, []ir.Instr{*ir.JMP(in.Target)})
			in.Target = stub.Label
			stubs = append(stubs, stub)
		}
	}
	return stubs
}

// appendCompensationMovs appends to dst the moves restoring every expanded
// register that is live at an exit target, given the exit's copy index and
// position.
func appendCompensationMovs(dst []ir.Instr, recs []renameRec, k, i int, live dataflow.RegSet) []ir.Instr {
	for ri := range recs {
		rec := &recs[ri]
		if !live.Has(rec.arch) {
			continue
		}
		name := rec.nameAt(k, i)
		if name == rec.arch {
			continue
		}
		if rec.arch.Class == ir.IntClass {
			dst = append(dst, *ir.MOV(rec.arch, name))
		} else {
			dst = append(dst, *ir.FMOV(rec.arch, name))
		}
	}
	return dst
}

// insertFallthroughMovs restores expanded locals that the loop's
// fall-through successor expects (the path past a conditional back edge,
// which cannot be stubbed): their moves go inline at the end of the last
// copy, before the back-edge branch. Induction finals are already in place.
func insertFallthroughMovs(copies [][]ir.Instr, recs []renameRec, exitIdx int32, lv *dataflow.Liveness) {
	if exitIdx < 0 || len(copies) == 0 {
		return
	}
	k := len(copies) - 1
	lastCopy := copies[k]
	var movBuf [8]ir.Instr
	movs := movBuf[:0]
	for ri := range recs {
		rec := &recs[ri]
		if rec.induction {
			continue // maintained by the final move after the last increment
		}
		if !lv.In[exitIdx].Has(rec.arch) {
			continue
		}
		movs = appendCompensationMovs(movs, recs[ri:ri+1], k, len(lastCopy), lv.In[exitIdx])
	}
	if len(movs) == 0 {
		return
	}
	// Insert before the terminal back-edge branch.
	copies[k] = slices.Insert(lastCopy, len(lastCopy)-1, movs...)
}
