package main

// Host-speed calibration. On a shared virtual machine the same work can
// take two or three times as long from one quarter of an hour to the next —
// CPU time per op grows with it, so it is not only stolen time — and a
// baseline taken in one period would flag or clear a later commit by the
// host's speed. The driver therefore times fixed work that owes nothing to
// the program under test, on every CPU at once, whenever the fleet is idle:
// before the first set-up, after each, and at every window boundary of the
// timed phase, with the load paused. Timing metrics are reported at the
// reference speed: times are multiplied by hostScale, rates divided.
//
// A slow period does not slow all code alike, and no one kind of work
// followed every workload's slowdown (NOTES.md). The work therefore has
// three parts, one for each kind of cost the fleet's ops are made of, and
// a calibration is the geometric mean of the parts' slowdowns.

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// calibPart is one part of the calibration work.
type calibPart struct {
	name string
	reps int // repetitions per CPU; the part's time is their mean
	// refNS is one repetition's mean time, in ns, as measured on the
	// 2-vCPU machine of the baseline in NOTES.md during the slow period
	// recorded there; any fixed value would do, since only the ratio of
	// two runs' figures matters.
	refNS float64
	run   func(cpu int) error
}

var calibParts = []calibPart{
	// Data-dependent branches, loads and stores over a 1 MiB arena, as
	// the program's interpreter, simulator and caches do.
	{"walk", 8, 1_100_000, func(cpu int) error { calibWalk(calibArenas[cpu]); return nil }},
	// JSON encoding and decoding, map inserts, sorting and allocation, as
	// the servers' request handling does.
	{"json", 4, 2_100_000, func(int) error { return calibJSON() }},
	// Small round trips over a loopback TCP connection, as every op
	// makes between driver, router and backend.
	{"loopback", 4, 2_500_000, calibLoopback},
}

// hostScale is a run's timing correction: the reciprocal of the median of
// the run's calibrations, below 1 when the host is slower than the
// reference.
func hostScale(cals []float64) float64 {
	return 1 / median(cals)
}

// calibrate runs each part calibReps times on every CPU concurrently and
// returns the geometric mean over the parts of the part's mean repetition
// time over its reference: 1 at the reference speed, 2 when every part
// takes twice as long. The mean, not the fastest repetition, is what
// follows the host: the fastest one escapes the host's interruptions.
func calibrate() (float64, error) {
	var logSum float64
	for _, p := range calibParts {
		total := make([]time.Duration, runtime.NumCPU())
		errs := make([]error, len(total))
		var wg sync.WaitGroup
		for cpu := range total {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := time.Now()
				for r := 0; r < p.reps && errs[cpu] == nil; r++ {
					errs[cpu] = p.run(cpu)
				}
				total[cpu] = time.Since(t)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		var sum time.Duration
		for _, d := range total {
			sum += d
		}
		mean := float64(sum.Nanoseconds()) / float64(len(total)*p.reps)
		logSum += math.Log(mean / p.refNS)
	}
	return math.Exp(logSum / float64(len(calibParts))), nil
}

const (
	walkIters = 100_000 // loop iterations per repetition
	walkArena = 1 << 17 // words of memory each CPU's walk covers (1 MiB)
)

// calibArenas holds each CPU's arena, allocated once.
var calibArenas = func() [][]uint64 {
	as := make([][]uint64, runtime.NumCPU())
	for i := range as {
		as[i] = make([]uint64, walkArena)
	}
	return as
}()

// calibWalk is an xorshift walk over arena.
func calibWalk(arena []uint64) {
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	for i := 0; i < walkIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (walkArena - 1)
		v := arena[j] + x
		if v&3 == 0 {
			acc += v >> 3
		} else {
			acc ^= v
		}
		arena[j] = v
	}
	arena[0] ^= acc
}

type calibDoc struct {
	Name  string            `json:"name"`
	Vals  []int             `json:"vals"`
	Attrs map[string]string `json:"attrs"`
	Kids  []calibDoc        `json:"kids,omitempty"`
}

var calibTree = func() calibDoc {
	d := calibDoc{Name: "root", Attrs: map[string]string{}}
	for i := 0; i < 20; i++ {
		s := strconv.Itoa(i)
		d.Kids = append(d.Kids, calibDoc{Name: "k" + s, Vals: []int{i, 2 * i, 99999},
			Attrs: map[string]string{"a": "b", s: "x"}})
	}
	return d
}()

// calibJSON round-trips a fixed document through encoding/json and builds
// and sorts a small map's keys, ten times.
func calibJSON() error {
	for i := 0; i < 10; i++ {
		b, err := json.Marshal(calibTree)
		if err != nil {
			return err
		}
		var d calibDoc
		if err := json.Unmarshal(b, &d); err != nil {
			return err
		}
		m := map[string]int{}
		for j := 0; j < 200; j++ {
			m[strconv.Itoa(j)] = j
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
	}
	return nil
}

var (
	loopbackOnce  sync.Once
	loopbackConns []net.Conn // one client connection per CPU
	loopbackErr   error
)

// calibLoopback makes 100 round trips of 32 bytes over cpu's loopback
// connection to an echo goroutine. The connections are opened on first use
// and live as long as the driver.
func calibLoopback(cpu int) error {
	loopbackOnce.Do(func() {
		for range runtime.NumCPU() {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				loopbackErr = err
				return
			}
			go func() {
				defer ln.Close()
				c, err := ln.Accept()
				if err != nil {
					return
				}
				var b [64]byte
				for {
					n, err := c.Read(b[:])
					if err != nil {
						return
					}
					if _, err := c.Write(b[:n]); err != nil {
						return
					}
				}
			}()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				loopbackErr = err
				return
			}
			loopbackConns = append(loopbackConns, c)
		}
	})
	if loopbackErr != nil {
		return loopbackErr
	}
	c := loopbackConns[cpu]
	var b [32]byte
	for i := 0; i < 100; i++ {
		if _, err := c.Write(b[:]); err != nil {
			return err
		}
		if _, err := io.ReadFull(c, b[:]); err != nil {
			return err
		}
	}
	return nil
}
