package main

import (
	"bytes"
	"slices"
	"testing"
)

// firstOps renders the first n ops of worker w's stream.
func firstOps(t *testing.T, name string, seed uint64, w, n int) [][]byte {
	t.Helper()
	d := &driver{keys: warmKeys(), cells: cells(), oracles: map[string]oracle{}}
	for _, b := range d.cells {
		d.oracles[b.kernel] = oracle{seg: "a"}
	}
	s := newStream(name, seed, w, d.cells)
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, d.render(nil, s.next(), ""))
	}
	return out
}

// The same seed gives the same programs and key sequence; another seed, or
// another worker, gives different ones.
func TestStreamsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a := firstOps(t, name, 7, 0, 64)
		if b := firstOps(t, name, 7, 0, 64); !slices.EqualFunc(a, b, bytes.Equal) {
			t.Errorf("%s: same seed, different ops", name)
		}
		if b := firstOps(t, name, 8, 0, 64); slices.EqualFunc(a, b, bytes.Equal) {
			t.Errorf("%s: different seeds, same ops", name)
		}
		if b := firstOps(t, name, 7, 1, 64); slices.EqualFunc(a, b, bytes.Equal) {
			t.Errorf("%s: different workers, same ops", name)
		}
	}
}

func TestKeySpace(t *testing.T) {
	if n := len(cells()); n != 17*5*3*3 {
		t.Fatalf("%d cells, want 765", n)
	}
	if n := len(warmKeys()); n != 2*765+len(sections) {
		t.Fatalf("%d keys, want %d", n, 2*765+len(sections))
	}
}

// One op in eight of hop is a batch, alternating HTTP and wire, of
// simulate/schedule keys only.
func TestHopMix(t *testing.T) {
	keys := warmKeys()
	s := newStream("hop", 1, 0, cells())
	var kinds []opKind
	for i := 0; i < 32; i++ {
		o := s.next()
		kinds = append(kinds, o.kind)
		for _, k := range o.batch {
			if keys[k].get {
				t.Fatalf("batch carries a figures key")
			}
		}
	}
	if kinds[7] != opBatchJSON || kinds[15] != opBatchWire || kinds[23] != opBatchJSON || kinds[0] != opKey {
		t.Fatalf("hop op kinds %v", kinds)
	}
}
