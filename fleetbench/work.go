package main

// Workloads: the paper's cell space, the seeded op streams drawn over it,
// and the per-op response checks.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"

	"sentinel/internal/mem"
	"sentinel/internal/prog"
	"sentinel/internal/workload"
)

var (
	models     = []string{"restricted", "general", "sentinel", "sentinel+stores", "boosting"}
	widths     = []int{2, 4, 8}
	predictors = []string{"perfect", "static", "tage"}
	sections   = []string{"fig4", "fig5", "table3", "overhead", "recovery",
		"buffer", "faults", "sharing", "boosting", "prediction"}
	workloadNames = []string{"warm", "hop", "simulate", "compile"}
)

// cell is one point of the paper's evaluation matrix.
type cell struct {
	kernel, model, pred string
	width               int
}

// cells enumerates 17 kernels × 5 models × 3 widths × 3 predictors.
func cells() []cell {
	var cs []cell
	for _, b := range workload.All() {
		for _, m := range models {
			for _, w := range widths {
				for _, p := range predictors {
					cs = append(cs, cell{kernel: b.Name, model: m, width: w, pred: p})
				}
			}
		}
	}
	return cs
}

func (c cell) body(extra string) []byte {
	return fmt.Appendf(nil, `{"workload":%q,"model":%q,"width":%d,"predictor":%q%s}`,
		c.kernel, c.model, c.width, c.pred, extra)
}

// key is one cacheable request of the warm key space.
type key struct {
	path string // path, with query for GETs
	get  bool
	op   byte // wire opcode (simulate or schedule); 0 for figures
	body []byte
}

func (k key) request(dst []byte, id string) []byte {
	if k.get {
		return appendGet(dst, k.path, id)
	}
	return appendPost(dst, k.path, k.body, id)
}

// warmKeys is the warm/hop key space: a simulate and a schedule request per
// cell, plus every figure section.
func warmKeys() []key {
	var ks []key
	for _, c := range cells() {
		b := c.body("")
		ks = append(ks, key{path: "/v1/simulate", op: wireOpSimulate, body: b},
			key{path: "/v1/schedule", op: wireOpSchedule, body: b})
	}
	for _, s := range sections {
		ks = append(ks, key{path: "/v1/figures?section=" + s, get: true})
	}
	return ks
}

// oracle is a kernel's reference result from the sequential interpreter —
// independent of the simulator the fleet runs.
type oracle struct {
	out    []int64
	memSum string
	seg    string // the segment the fault study pages out
}

// faultSegments is the fault-injection study's primary-input preference
// order (eval's injectOne).
var faultSegments = []string{"text", "input", "src", "a", "heap", "cells", "x", "re", "b-data", "tokens"}

func kernelOracles() (map[string]oracle, error) {
	out := map[string]oracle{}
	for _, b := range workload.All() {
		p, m := b.Build()
		seg := ""
		for _, s := range faultSegments {
			if m.Segment(s) != nil {
				seg = s
				break
			}
		}
		o, err := refRun(p, m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		o.seg = seg
		out[b.Name] = o
	}
	return out, nil
}

func refRun(p *prog.Program, m *mem.Memory) (oracle, error) {
	p.Layout()
	res, err := prog.Run(p, m.Clone(), prog.Options{})
	if err != nil {
		return oracle{}, err
	}
	return oracle{out: res.Out, memSum: strconv.FormatUint(res.MemSum, 10)}, nil
}

// op is one timed request (or batch) of a workload stream.
type op struct {
	kind  opKind
	key   int    // warm/hop single ops: index into the key space
	batch []int  // warm/hop batch ops: key indices, element i is tag i
	cell  cell   // simulate ops
	src   string // compile ops: the generated program
	model string
	width int
	body  []byte
}

type opKind uint8

const (
	opKey opKind = iota
	opBatchJSON
	opBatchWire
	opFull
	opFault
	opCompile
)

// batchSize is the hop workload's batch width; one op in hopBatchEvery is a
// batch.
const (
	batchSize     = 16
	hopBatchEvery = 8
)

// Warm-key mix: one op in figuresEvery asks for a figure section (uniform
// over sections); the rest pick a cell by Zipf rank — P(rank k) ∝
// (zipfV+k)^-zipfS, so no single cell carries more than about 2% of ops
// and the mix costs about the same whatever the seed — then simulate or
// schedule with equal odds.
const (
	figuresEvery = 64
	zipfS        = 1.1
	zipfV        = 16
)

// stream is one load worker's deterministic op sequence.
type stream struct {
	name  string
	r     *rand.Rand
	zipf  *rand.Zipf
	perm  []int // Zipf rank → cell index
	cells []cell
	seed  uint64
	w, n  uint64
}

// newStream returns worker w's stream for the named workload. The seed's
// hot-cell order is shared by every worker.
func newStream(name string, seed uint64, w int, cs []cell) *stream {
	s := &stream{name: name, seed: seed, w: uint64(w), cells: cs,
		r: rand.New(rand.NewPCG(seed, uint64(w)+1))}
	if name == "warm" || name == "hop" {
		s.perm = rand.New(rand.NewPCG(seed, 0)).Perm(len(cs))
		s.zipf = rand.NewZipf(s.r, zipfS, zipfV, uint64(len(cs)-1))
	}
	return s
}

// cellKey draws a simulate or schedule key of a Zipf-ranked cell; keys
// 2i and 2i+1 are cell i's simulate and schedule requests (warmKeys).
func (s *stream) cellKey() int {
	return 2*s.perm[s.zipf.Uint64()] + s.r.IntN(2)
}

// next returns the worker's next op.
func (s *stream) next() op {
	k := s.n
	s.n++
	switch s.name {
	case "warm", "hop":
		if s.name == "hop" && k%hopBatchEvery == hopBatchEvery-1 {
			o := op{kind: opBatchJSON}
			if (k/hopBatchEvery)%2 == 1 {
				o.kind = opBatchWire
			}
			for len(o.batch) < batchSize {
				o.batch = append(o.batch, s.cellKey())
			}
			return o
		}
		if s.r.IntN(figuresEvery) == 0 {
			return op{kind: opKey, key: 2*len(s.cells) + s.r.IntN(len(sections))}
		}
		return op{kind: opKey, key: s.cellKey()}
	case "simulate":
		if k%4 == 3 {
			c := s.cells[s.r.IntN(len(s.cells))]
			c.model = []string{"sentinel", "sentinel+stores"}[s.r.IntN(2)]
			return op{kind: opFault, cell: c}
		}
		return op{kind: opFull, cell: s.cells[s.r.IntN(len(s.cells))]}
	default: // compile
		return compileOp(s.seed, s.w, k, s.r)
	}
}

// compileOp is program k of worker w. Worker streams are disjoint: the
// program index interleaves the worker number.
func compileOp(seed, w, k uint64, r *rand.Rand) op {
	src := genProgram(seed, k<<8|w)
	model := models[r.IntN(len(models))]
	width := widths[r.IntN(len(widths))]
	return op{kind: opCompile, src: src, model: model, width: width, body: sourceBody(src, model, width, false)}
}

// sourceBody is a schedule (or, with full, a full simulate) request for
// inline source.
func sourceBody(src, model string, width int, full bool) []byte {
	b, _ := json.Marshal(struct { // a struct of strings, an int and a bool always encodes
		Source string `json:"source"`
		Model  string `json:"model"`
		Width  int    `json:"width"`
		Full   bool   `json:"full,omitempty"`
	}{src, model, width, full})
	return b
}

var errBody = errors.New("response body differs from the backend's direct answer")

// checkFull verifies a full simulate against the interpreter's result.
func checkFull(r response, o oracle) error {
	if r.Status != 200 {
		return fmt.Errorf("full simulate: status %d: %.200s", r.Status, r.Body)
	}
	var v struct {
		Out    []int64 `json:"out"`
		MemSum string  `json:"mem_sum"`
	}
	if err := json.Unmarshal(r.Body, &v); err != nil {
		return fmt.Errorf("full simulate: %w", err)
	}
	if !slices.Equal(v.Out, o.out) || v.MemSum != o.memSum {
		return fmt.Errorf("full simulate: out=%v mem_sum=%s, interpreter says out=%v mem_sum=%s",
			v.Out, v.MemSum, o.out, o.memSum)
	}
	return nil
}

// checkFault verifies the paper's sentinel-reported exception envelope.
func checkFault(r response) error {
	var v struct {
		Error struct {
			Kind string `json:"kind"`
			PC   *int   `json:"pc"`
		} `json:"error"`
	}
	if r.Status != 422 {
		return fmt.Errorf("fault simulate: status %d, want 422: %.200s", r.Status, r.Body)
	}
	if err := json.Unmarshal(r.Body, &v); err != nil {
		return fmt.Errorf("fault simulate: %w", err)
	}
	if v.Error.Kind != "sentinel_exception" || v.Error.PC == nil {
		return fmt.Errorf("fault simulate: want sentinel_exception with a pc: %.200s", r.Body)
	}
	return nil
}

// checkSchedule verifies a compile response carries a scheduled listing.
func checkSchedule(r response) error {
	if r.Status != 200 {
		return fmt.Errorf("schedule: status %d: %.200s", r.Status, r.Body)
	}
	var v struct {
		Instrs  int    `json:"instrs"`
		Listing string `json:"listing"`
	}
	if err := json.Unmarshal(r.Body, &v); err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	if v.Instrs <= 0 || v.Listing == "" {
		return fmt.Errorf("schedule: empty listing: %.200s", r.Body)
	}
	return nil
}

// checkBatchStream verifies a /v1/batch response stream: one
// {"index","status","bytes"} header line plus payload per element, then a
// done trailer; each element must appear once and its payload equal its
// key's expected bytes.
func checkBatchStream(body []byte, batch []int, expect [][]byte) error {
	seen := make([]bool, len(batch))
	n := 0
	for {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			return errors.New("batch: truncated stream")
		}
		var h struct {
			Index, Status, Bytes, Elements int
			Done                           bool
		}
		if err := json.Unmarshal(body[:nl], &h); err != nil {
			return fmt.Errorf("batch: element header: %w", err)
		}
		body = body[nl+1:]
		if h.Done {
			if h.Elements != len(batch) || n != len(batch) {
				return fmt.Errorf("batch: %d elements, want %d", n, len(batch))
			}
			return nil
		}
		if h.Index < 0 || h.Index >= len(batch) || seen[h.Index] || h.Bytes > len(body) {
			return fmt.Errorf("batch: bad or repeated element header index=%d bytes=%d", h.Index, h.Bytes)
		}
		seen[h.Index] = true
		if h.Status != 200 || !bytes.Equal(body[:h.Bytes], expect[batch[h.Index]]) {
			return fmt.Errorf("batch element %d: status %d: %w", h.Index, h.Status, errBody)
		}
		body = body[h.Bytes:]
		n++
	}
}

// batchJSON renders the /v1/batch array for a batch op.
func batchJSON(dst []byte, batch []int, keys []key) []byte {
	dst = append(dst, '[')
	for i, ki := range batch {
		if i > 0 {
			dst = append(dst, ',')
		}
		op := "simulate"
		if keys[ki].op == wireOpSchedule {
			op = "schedule"
		}
		dst = fmt.Appendf(dst, `{"op":%q,"request":%s}`, op, keys[ki].body)
	}
	return append(dst, ']')
}
