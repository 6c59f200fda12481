package sim

import (
	"math/rand/v2"
	"testing"
)

var tageHistLens = [tageTables]int{tageHist0, tageHist1, tageHist2, tageHist3}

// TestFoldStepMatchesFoldHist pins the circular folded histories to their
// definition: over a long random outcome stream, a fold advanced one
// outcome at a time by foldStep equals foldHist of the full history after
// every outcome, at every table's history length and for each fold width
// the predictor keeps (index, tag, tag less one), plus a spread of other
// widths so the identity does not lean on the current constants.
func TestFoldStepMatchesFoldHist(t *testing.T) {
	steps := 200_000
	if testing.Short() {
		steps = 20_000
	}
	widths := []int{tageLogSize, tageTagBits, tageTagBits - 1, 1, 2, 5, 7, 12, 16}
	for _, l := range tageHistLens {
		for _, w := range widths {
			r := rand.New(rand.NewPCG(uint64(l), uint64(w)))
			var h uint64
			var f uint32
			for i := 0; i < steps; i++ {
				in := r.Uint64() & 1
				f = foldStep(f, h, uint32(in), uint(l), uint(w))
				h = h<<1 | in
				if want := foldHist(h, l, w); f != want {
					t.Fatalf("histLen %d width %d step %d: foldStep %#x, foldHist %#x", l, w, i, f, want)
				}
			}
		}
	}
}

// TestTAGEFoldsTrackHistory checks the predictor's own folded registers
// against foldHist of its global history after every update, and after a
// Reset, so lookups index exactly as re-folding would.
func TestTAGEFoldsTrackHistory(t *testing.T) {
	tg := newTAGE(NewProgIndex(loopProgram(10)))
	check := func(step int) {
		t.Helper()
		for i, l := range tageHistLens {
			for k, w := range tageFoldWidths {
				if got, want := tg.folds[i][k], foldHist(tg.hist, l, w); got != want {
					t.Fatalf("step %d table %d width %d: fold %#x, foldHist of %#x is %#x",
						step, i, w, got, tg.hist, want)
				}
			}
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 2; round++ {
		for i := 0; i < 5_000; i++ {
			tg.Predict(0)
			tg.Update(0, r.IntN(3) > 0)
			check(i)
		}
		tg.Reset()
		check(-1)
	}
}
