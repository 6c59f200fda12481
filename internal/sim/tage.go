package sim

// TAGE: a TAgged GEometric-history-length branch predictor. The static
// (backward-taken) prior serves as the base prediction; four tagged tables indexed by a hash
// of the branch id and a geometrically growing slice of global history
// {5, 11, 22, 44} provide the context-sensitive predictions. The component
// with the longest matching history wins (the provider); the next match (or
// the base) is the alternate. On a mispredict a new entry is allocated in a
// longer-history table whose victim's useful counter is zero; useful
// counters are trained when provider and alternate disagree, and aged
// periodically so stale entries become reclaimable.
//
// Everything here is deterministic — table sizes are fixed, allocation
// picks the shortest eligible table, there is no randomness — and
// allocation-free after construction: Predict and Update touch only the
// arrays built by newTAGE, so a predictor value can sit in the simulator's
// per-run arena and be Reset between runs.
const (
	tageTables    = 4
	tageLogSize   = 9 // 2^9 entries per tagged table
	tageSize      = 1 << tageLogSize
	tageTagBits   = 9
	tageTagMask   = (1 << tageTagBits) - 1
	tageCtrMax    = 3 // 3-bit signed counter: -4..3, taken iff >= 0
	tageCtrMin    = -4
	tageUMax      = 3       // 2-bit useful counter
	tageAgePeriod = 1 << 18 // updates between useful-counter agings
	tageMetaUse   = 2       // chooser threshold: trust the chain at meta >= this
	tageMetaMax   = 7
	tageMetaMin   = -8
)

// The geometric global-history lengths of the tagged tables, shortest
// first.
const (
	tageHist0 = 5
	tageHist1 = 11
	tageHist2 = 22
	tageHist3 = 44
)

type tageEntry struct {
	tag uint16
	ctr int8
	u   uint8
}

type tage struct {
	ix *ProgIndex

	// meta is the per-branch chooser between the static prior and the
	// dynamic tagged chain: +1 each time the chain is right where static is
	// wrong, -2 for the reverse, clamped to [-8, 7]. The chain's prediction
	// is used only at meta >= 2 — it must demonstrate a net advantage on
	// this branch twice before being trusted, and one betrayal costs two
	// demonstrations. Branch ids are dense per program, so the chooser is
	// exact (no aliasing), which is what makes the >=-static workload
	// property hold: a branch the chain cannot beat static on stays pinned
	// to the static prediction.
	meta []int8

	tables  [tageTables][tageSize]tageEntry
	hist    uint64 // global direction history, newest outcome in bit 0
	updates int64  // dynamic branches seen, for useful-counter aging

	// folds[i] holds table i's circular folded histories (Seznec & Michaud,
	// JILP 2006): hist folded into the widths of tageFoldWidths, kept
	// current on every outcome instead of re-folded on every lookup.
	folds [tageTables][len(tageFoldWidths)]uint32

	// Prediction context carried from Predict to the matching Update;
	// recomputed defensively if the branch ids disagree.
	pBid      int32
	pProvider int  // provider table, -1 = base
	pAlt      int  // alternate table, -1 = base
	pPred     bool // final output: pDyn or the static prior, per meta
	pDyn      bool // the tagged chain's own prediction
	pAltPred  bool
	pIdx      [tageTables]uint32
	pTag      [tageTables]uint16
}

// tageFoldWidths are the fold widths each table's index and tag hash use:
// the index width, the tag width, and the tag width less one (Update and
// lookup spell them out in this order).
var tageFoldWidths = [...]int{tageLogSize, tageTagBits, tageTagBits - 1}

// newTAGE builds a predictor in its initial (Reset) state: the tables are
// zero as allocated.
func newTAGE(ix *ProgIndex) *tage {
	return &tage{ix: ix, meta: make([]int8, ix.NumBranches()), pBid: -1}
}

func (t *tage) Reset() {
	clear(t.meta)
	for i := range t.tables {
		clear(t.tables[i][:])
	}
	t.hist = 0
	t.updates = 0
	t.folds = [tageTables][len(tageFoldWidths)]uint32{}
	t.pBid = -1
}

// foldHist compresses the low histLen bits of h into bits bits by XOR
// folding, the classic TAGE index/tag compression. The predictor keeps its
// folds current with foldStep; foldHist is their definition (and the
// tests' oracle).
func foldHist(h uint64, histLen, bits int) uint32 {
	h &= (uint64(1) << uint(histLen)) - 1
	mask := (uint32(1) << uint(bits)) - 1
	var f uint32
	for histLen > 0 {
		f ^= uint32(h) & mask
		h >>= uint(bits)
		histLen -= bits
	}
	return f
}

// foldStep advances f = foldHist(h, histLen, bits) to
// foldHist(h<<1|in, histLen, bits) in O(1): shifting the history moves each
// bit one fold position up, a rotate-left of f; the new outcome enters at
// bit 0, and the bit leaving the histLen window (h's bit histLen-1, now at
// fold position histLen mod bits) is cancelled.
func foldStep(f uint32, h uint64, in uint32, histLen, bits uint) uint32 {
	f = f<<1 | in
	f ^= uint32(h>>(histLen-1)) & 1 << (histLen % bits)
	f ^= f >> bits
	return f & (1<<bits - 1)
}

// basePred is the base component: the static (backward-taken/forward-not-
// taken) prior itself, not a learnable bimodal. Anchoring the base makes
// TAGE's accuracy floor the static frontend's — a tagged entry must earn
// the right to override it — which is what the >=-static workload property
// pins.
func (t *tage) basePred(bid int32) bool { return t.ix.StaticPrediction(bid) }

// lookup fills the prediction context for bid: per-table indices and tags,
// provider/alternate components and their predictions.
func (t *tage) lookup(bid int32) {
	t.pBid = bid
	t.pProvider, t.pAlt = -1, -1
	ub := uint32(bid)
	for i := 0; i < tageTables; i++ {
		f := &t.folds[i]
		t.pIdx[i] = (ub ^ ub>>tageLogSize ^ f[0] ^ uint32(i)) & (tageSize - 1)
		t.pTag[i] = uint16((ub ^ f[1] ^ f[2]<<1) & tageTagMask)
	}
	for i := tageTables - 1; i >= 0; i-- {
		if t.tables[i][t.pIdx[i]].tag == t.pTag[i] {
			if t.pProvider < 0 {
				t.pProvider = i
			} else {
				t.pAlt = i
				break
			}
		}
	}
	t.pAltPred = t.basePred(bid)
	if t.pAlt >= 0 {
		t.pAltPred = t.tables[t.pAlt][t.pIdx[t.pAlt]].ctr >= 0
	}
	t.pDyn = t.pAltPred
	if t.pProvider >= 0 {
		e := t.tables[t.pProvider][t.pIdx[t.pProvider]]
		// Use-alt-on-newly-allocated: a weak entry that has never been
		// useful is still in its learning transient (or an aliasing victim),
		// so the alternate decides until the entry proves itself.
		if e.u > 0 || !weakCtr(e.ctr) {
			t.pDyn = e.ctr >= 0
		}
	}
	// The meta chooser arbitrates between the chain and the static prior.
	t.pPred = t.pDyn
	if t.meta[bid] < tageMetaUse {
		t.pPred = t.basePred(bid)
	}
}

// weakCtr reports a counter still at one of the two just-allocated values.
func weakCtr(c int8) bool { return c == 0 || c == -1 }

func (t *tage) Predict(bid int32) bool {
	t.lookup(bid)
	return t.pPred
}

func satUpdate(ctr int8, taken bool) int8 {
	if taken {
		if ctr < tageCtrMax {
			ctr++
		}
	} else if ctr > tageCtrMin {
		ctr--
	}
	return ctr
}

func (t *tage) Update(bid int32, taken bool) {
	if t.pBid != bid {
		t.lookup(bid) // defensive: Update without a matching Predict
	}
	// Train the meta chooser on every disagreement between the chain and
	// the static prior, whichever side was actually used.
	if sp := t.basePred(bid); t.pDyn != sp {
		m := t.meta[bid]
		if t.pDyn == taken {
			if m < tageMetaMax {
				m++
			}
		} else {
			m -= 2
			if m < tageMetaMin {
				m = tageMetaMin
			}
		}
		t.meta[bid] = m
	}

	if t.pProvider >= 0 {
		e := &t.tables[t.pProvider][t.pIdx[t.pProvider]]
		// The useful counter tracks predictions the provider's own counter
		// got right where the alternate would have been wrong — its own
		// prediction, not the final output, which use-alt-on-newly-allocated
		// may have overridden with the alternate.
		provPred := e.ctr >= 0
		if provPred != t.pAltPred {
			if provPred == taken {
				if e.u < tageUMax {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		// A never-useful provider also trains its alternate: while the
		// alternate is deciding (the u > 0 gate above), it must keep
		// learning, or a stale entry would starve the component below.
		if e.u == 0 && t.pAlt >= 0 {
			a := &t.tables[t.pAlt][t.pIdx[t.pAlt]]
			a.ctr = satUpdate(a.ctr, taken)
		}
		e.ctr = satUpdate(e.ctr, taken)
	}

	// Allocation on a chain mispredict (the chain keeps learning even while
	// the chooser routes around it): claim an entry with a zero useful
	// counter in the shortest table with longer history than the provider;
	// if every candidate is defended, age them all so the next mispredict
	// succeeds.
	if t.pDyn != taken && t.pProvider < tageTables-1 {
		allocated := false
		for i := t.pProvider + 1; i < tageTables; i++ {
			e := &t.tables[i][t.pIdx[i]]
			if e.u == 0 {
				e.tag = t.pTag[i]
				if taken {
					e.ctr = 0 // weakly taken
				} else {
					e.ctr = -1 // weakly not-taken
				}
				allocated = true
				break
			}
		}
		if !allocated {
			for i := t.pProvider + 1; i < tageTables; i++ {
				e := &t.tables[i][t.pIdx[i]]
				if e.u > 0 {
					e.u--
				}
			}
		}
	}

	// Periodic aging halves every useful counter so entries that stopped
	// earning their keep eventually become allocation victims.
	t.updates++
	if t.updates%tageAgePeriod == 0 {
		for i := range t.tables {
			for j := range t.tables[i] {
				t.tables[i][j].u >>= 1
			}
		}
	}

	// Advance every folded history. Written out with constant lengths and
	// widths, each foldStep inlines to a few fixed shifts.
	h, in, f := t.hist, uint32(b2u(taken)), &t.folds
	f[0][0] = foldStep(f[0][0], h, in, tageHist0, tageLogSize)
	f[0][1] = foldStep(f[0][1], h, in, tageHist0, tageTagBits)
	f[0][2] = foldStep(f[0][2], h, in, tageHist0, tageTagBits-1)
	f[1][0] = foldStep(f[1][0], h, in, tageHist1, tageLogSize)
	f[1][1] = foldStep(f[1][1], h, in, tageHist1, tageTagBits)
	f[1][2] = foldStep(f[1][2], h, in, tageHist1, tageTagBits-1)
	f[2][0] = foldStep(f[2][0], h, in, tageHist2, tageLogSize)
	f[2][1] = foldStep(f[2][1], h, in, tageHist2, tageTagBits)
	f[2][2] = foldStep(f[2][2], h, in, tageHist2, tageTagBits-1)
	f[3][0] = foldStep(f[3][0], h, in, tageHist3, tageLogSize)
	f[3][1] = foldStep(f[3][1], h, in, tageHist3, tageTagBits)
	f[3][2] = foldStep(f[3][2], h, in, tageHist3, tageTagBits-1)
	t.hist = h<<1 | uint64(in)
	t.pBid = -1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
