package main

// The deployed topology under test: a sentinelfront router in front of two
// `sentineld -warm -j 1` backends, started as child processes. Readiness is
// event-driven — the driver reads the router's log and proceeds the moment
// it reports both backends ready — and every process is stopped and waited
// for before the driver exits.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fixed ports keep the hash ring — which hashes backend addresses — and so
// each backend's share of the prefill identical from run to run.
var portBases = []int{47651, 48651, 49651, 46651}

// readyTimeout bounds one fleet start.
const readyTimeout = 60 * time.Second

type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and its log is drained
	mu   sync.Mutex
	tail []string // last log lines, for failure reports
}

type topology struct {
	router   string   // router address
	backends []string // backend addresses, ring order irrelevant
	procs    []*proc  // router first
}

// fleetConfig is what a workload varies: whether the router's front cache
// is on, and the size of every response cache.
type fleetConfig struct {
	bin          string
	frontCache   bool
	cacheEntries int // 0 keeps the default
}

func freePorts() ([]int, error) {
	for _, base := range portBases {
		ok := true
		for i := 0; i < 3 && ok; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base+i))
			if err != nil {
				ok = false
				continue
			}
			ln.Close()
		}
		if ok {
			return []int{base, base + 1, base + 2}, nil
		}
	}
	return nil, errors.New("no free port block for the fleet")
}

// startFleet launches the backends and the router and returns once the
// router has seen every backend ready.
func startFleet(cfg fleetConfig) (*topology, error) {
	ports, err := freePorts()
	if err != nil {
		return nil, err
	}
	f := &topology{router: fmt.Sprintf("127.0.0.1:%d", ports[0])}
	for _, p := range ports[1:] {
		f.backends = append(f.backends, fmt.Sprintf("127.0.0.1:%d", p))
	}
	ready := make(chan string, len(f.backends))
	exited := make(chan string, 3) // one slot per process: exits never block
	routerArgs := []string{"-addr", f.router, "-backends", strings.Join(f.backends, ","),
		"-probe-interval", "20ms"}
	backendArgs := []string{"-warm", "-j", "1"}
	if cfg.cacheEntries != 0 {
		size := []string{"-respcache-entries", strconv.Itoa(cfg.cacheEntries)}
		routerArgs = append(routerArgs, size...)
		backendArgs = append(backendArgs, size...)
	}
	if !cfg.frontCache {
		routerArgs = append(routerArgs, "-respcache-entries", "-1")
	}
	for i, b := range f.backends {
		p, err := launch(fmt.Sprintf("backend%d", i), filepath.Join(cfg.bin, "sentineld"), exited, nil,
			append([]string{"-addr", b}, backendArgs...)...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
	}
	rt, err := launch("router", filepath.Join(cfg.bin, "sentinelfront"), exited, func(line string) {
		for _, b := range f.backends {
			if strings.HasSuffix(line, "fleet: backend "+b+" ready") {
				select { // never block the log reader: the router would stall on a full pipe
				case ready <- b:
				default:
				}
			}
		}
	}, routerArgs...)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.procs = append([]*proc{rt}, f.procs...)

	seen := map[string]bool{}
	deadline := time.After(readyTimeout)
	for len(seen) < len(f.backends) {
		select {
		case b := <-ready:
			seen[b] = true
		case p := <-exited:
			f.stop()
			return nil, fmt.Errorf("%s exited during start:\n%s", p, f.logs())
		case <-deadline:
			f.stop()
			return nil, fmt.Errorf("fleet not ready within %s:\n%s", readyTimeout, f.logs())
		}
	}
	return f, nil
}

// launch starts one process; onLine sees each log line as it is written,
// and exited receives the name once the process has ended.
func launch(name, path string, exited chan<- string, onLine func(string), args ...string) (*proc, error) {
	cmd := exec.Command(path, args...)
	// The kernel kills a child whose driver dies, so no run leaves strays.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	pw.Close()
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if onLine != nil {
				onLine(line)
			}
		}
		io.Copy(io.Discard, pr) //nolint:errcheck // draining a pipe whose writer has exited
		pr.Close()
		cmd.Wait() //nolint:errcheck // exit status is reported through the log tail
		close(p.done)
		exited <- name
	}()
	return p, nil
}

func (f *topology) logs() string {
	var b strings.Builder
	for _, p := range f.procs {
		p.mu.Lock()
		for _, l := range p.tail {
			fmt.Fprintf(&b, "  %s: %s\n", p.name, l)
		}
		p.mu.Unlock()
	}
	return b.String()
}

// stop terminates every process (SIGTERM, then SIGKILL after a grace
// period) and waits for each to exit.
func (f *topology) stop() {
	for _, p := range f.procs {
		p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	}
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
			<-p.done
		}
	}
	f.procs = nil
}

// pids returns the fleet's process IDs.
func (f *topology) pids() []int {
	var ps []int
	for _, p := range f.procs {
		ps = append(ps, p.cmd.Process.Pid)
	}
	return ps
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clkTck = 100

// cpuSeconds sums user+system CPU of pids from /proc/<pid>/stat.
func cpuSeconds(pids []int) (float64, error) {
	var ticks int64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesized command name: state is field 3,
		// utime and stime are fields 14 and 15.
		i := bytes.LastIndexByte(b, ')')
		fs := strings.Fields(string(b[i+1:]))
		if len(fs) < 13 {
			return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
		}
		for _, s := range fs[11:13] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
			}
			ticks += v
		}
	}
	return float64(ticks) / clkTck, nil
}

// peakRSSMB sums VmHWM over pids, in MB.
func peakRSSMB(pids []int) (float64, error) {
	var kb int64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
				}
				kb += n
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
		}
	}
	return float64(kb) / 1024, nil
}

// stealTicks reads the machine's cumulative steal time (the "cpu" line of
// /proc/stat, eighth value), in USER_HZ ticks; 0 when unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fs := strings.Fields(line)
	if len(fs) < 9 || fs[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(fs[8], 10, 64)
	return v
}
