package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func sortedSamples(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

// The percentile rule: a p99 needs ten samples beyond it, so 999 samples
// are refused and 1000 are enough.
func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := percentile(sortedSamples(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples was reported")
	}
	v, err := percentile(sortedSamples(1000), 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1000 samples = %d, %v; want 990", v, err)
	}
	if _, err := percentile(sortedSamples(19), 0.50); err == nil {
		t.Fatal("p50 of 19 samples was reported")
	}
	if _, err := percentile(nil, 0.50); err == nil {
		t.Fatal("p50 of no samples was reported")
	}
}

// latencies refuses a run too short for a p99 and takes the median of the
// chunk p99s otherwise.
func TestLatenciesChunkedP99(t *testing.T) {
	r := windows(1)
	for i := 0; i < 999; i++ {
		r.samples = append(r.samples, sample{end: int64(i), lat: 1})
	}
	if _, _, err := r.latencies(); err == nil {
		t.Fatal("p99 of 999 ops was reported")
	}
	r.samples = r.samples[:0]
	// Three chunks of 2000: the middle one is ten times slower.
	for i := 0; i < 6000; i++ {
		lat := int64(i%2000 + 1)
		if i/2000 == 1 {
			lat *= 10
		}
		r.samples = append(r.samples, sample{end: int64(i), lat: lat})
	}
	_, p99, err := r.latencies()
	if err != nil {
		t.Fatal(err)
	}
	if p99 != 1980 {
		t.Fatalf("p99 = %v, want the median of the chunk p99s, 1980", p99)
	}
}

func TestWindowedMedians(t *testing.T) {
	r := windows(3)
	r.cpu = []float64{0, 1, 2, 3}
	for w, n := range []int{100, 200, 300} {
		for i := 0; i < n; i++ {
			r.ends = append(r.ends, int64(w)*int64(time.Second)+int64(i)+1)
		}
	}
	r.ends = append(r.ends, 5*int64(time.Second)) // after the phase: not windowed
	tput, cpu := r.windowed()
	if tput != 200 || cpu != 1.0/200 {
		t.Fatalf("windowed = %v, %v; want 200, 0.005", tput, cpu)
	}
}

// Windows in which the hypervisor stole more CPU than in the median window,
// and a noticeable share of it, are left out of every windowed metric.
func TestQuietWindows(t *testing.T) {
	r := windows(4)
	r.cpu, r.steal = []float64{0, 1, 2, 3, 4}, []int64{0, 0, 5000, 5000, 5001}
	for w, n := range []int{100, 10, 300, 200} { // window 1 lost half its CPU
		for i := 0; i < n; i++ {
			r.ends = append(r.ends, int64(w)*int64(time.Second)+int64(i)+1)
		}
	}
	if q := r.quietWindows(); !slices.Equal(q, []bool{true, false, true, true}) {
		t.Fatalf("quiet windows %v", q)
	}
	if tput, _ := r.windowed(); tput != 200 {
		t.Fatalf("throughput %v, want the median of the quiet windows, 200", tput)
	}
}

// windows returns a phase of n one-second windows with instant pauses
// between them.
func windows(n int) result {
	r := result{cpu: make([]float64, n+1)}
	for w := 0; w <= n; w++ {
		r.pauses = append(r.pauses, int64(w)*int64(time.Second))
		r.resumes = append(r.resumes, int64(w)*int64(time.Second))
	}
	return r
}

// A window runs from the resume after one boundary's pause to the next
// pause: an op completing just after a resume belongs to the new window,
// and the pauses count in no window's length.
func TestWindowsExcludePauses(t *testing.T) {
	ms := int64(time.Millisecond)
	r := result{pauses: []int64{0, 1000 * ms, 2000 * ms}, resumes: []int64{10 * ms, 1010 * ms, 2010 * ms},
		cpu: []float64{0, 1, 2}}
	r.ends = []int64{20 * ms, 1000 * ms, 1011 * ms, 1500 * ms, 2000 * ms}
	if c := r.windowCounts(); !slices.Equal(c, []int{2, 3}) {
		t.Fatalf("window counts %v, want [2 3]", c)
	}
	if s := r.windowSeconds(1); s != 0.99 {
		t.Fatalf("window 1 lasts %vs, want 0.99", s)
	}
}

// Timing metrics scale by the reciprocal of the run's median calibration:
// a host running at half speed reads a scale of one half.
func TestHostScale(t *testing.T) {
	if s := hostScale([]float64{2, 1.9, 9}); s != 0.5 {
		t.Fatalf("host scale %v, want 0.5", s)
	}
}

// A calibration runs every part, loopback connections included, and
// returns a positive slowness.
func TestCalibrate(t *testing.T) {
	c, err := calibrate()
	if err != nil || !(c > 0) || math.IsInf(c, 0) {
		t.Fatalf("calibrate = %v, %v", c, err)
	}
}

// When the quiet windows hold fewer than 1000 ops, the least-stolen of the
// other windows join them until they do; the most-stolen one stays out.
func TestThinQuietWindowsFill(t *testing.T) {
	r := windows(4)
	r.steal = []int64{0, 0, 0, 300, 500} // stolen per window: 0, 0, 300, 200
	sec := int64(time.Second)
	for w, n := range []int{300, 300, 600, 600} {
		for i := 0; i < n; i++ {
			end := int64(w)*sec + int64(i) + 1
			lat := int64(i + 1)
			if w == 2 {
				lat = 1e9
			}
			r.ends = append(r.ends, end)
			r.samples = append(r.samples, sample{end: end, lat: lat})
		}
	}
	if q := r.quietWindows(); !slices.Equal(q, []bool{true, true, false, false}) {
		t.Fatalf("quiet windows %v", q)
	}
	if _, p99, err := r.latencies(); err != nil || p99 >= 1e9 {
		t.Fatalf("p99 = %v, %v; want it from windows 0, 1 and 3", p99, err)
	}
}
