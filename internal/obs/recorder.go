package obs

// Request-scoped observability: per-request span arenas and an always-on
// flight recorder.
//
// A Record is a fixed-size arena of Spans covering one request's stages
// (admission wait, response-cache lookup, singleflight wait-vs-own,
// compile, schedule, simulate, encode). Records are pooled and never
// allocate on the request path; every method on *Record is nil-safe so
// instrumented code holds a possibly-nil handle and calls it
// unconditionally, exactly like the Registry instruments.
//
// The Recorder tail-samples completed records — every error, every request
// over a latency threshold, and 1-in-K of the rest — into a lock-striped
// ring of the last N retained records, which /debug/requests renders. The
// microsecond-scale warm cache-hit path instead asks SampleWarm up front:
// with warm sampling off that is a single atomic load and the hit records
// nothing; with 1-in-K on it is a load plus one counter add.
//
// A Record belongs to one goroutine. Code that fans work out across
// goroutines must strip the record from the context first (the eval
// runner's parallel driver does).

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage labels one request stage a Span covers.
type Stage uint8

const (
	StageAdmission  Stage = iota // waiting for an admission slot
	StageRespCache               // response-byte cache lookup/serve
	StageSFWait                  // waiting on another request's singleflight
	StageSFOwn                   // owning (computing) a singleflight entry
	StageCompile                 // build + profile + superblock formation
	StageSchedule                // list scheduling
	StageSimulate                // cycle-level simulation
	StageEncode                  // response encoding + cache fill
	StageBatch                   // batch fan-out across the worker pool
	StageRoute                   // fleet router: fingerprint + ring/spill decision
	StageProxy                   // fleet router: proxied hop to the chosen backend
	StageFleetCache              // fleet router: front response-cache lookup/serve
	StageDecode                  // request body decode
	numStages
)

var stageNames = [numStages]string{
	"admission", "respcache", "sfwait", "sfown",
	"compile", "schedule", "simulate", "encode", "batch",
	"route", "proxy", "fcache", "decode",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage" + strconv.Itoa(int(s))
}

// Arg qualifies a Stage with which cache or artifact it concerns.
type Arg uint8

const (
	ArgNone    Arg = iota
	ArgBuilds      // built-program flight
	ArgForms       // formed-superblock flight
	ArgScheds      // schedule flight
	ArgCells       // measured-cell flight
	ArgSources     // compiled-source singleflight
	ArgRaw         // raw-fingerprint response cache
	ArgCanon       // canonical-fingerprint response cache
	ArgHashed      // fleet: routed to the fingerprint's ring owner
	ArgSpilled     // fleet: hot key spilled across the whole fleet
	numArgs
)

var argNames = [numArgs]string{
	"", "builds", "forms", "scheds", "cells", "sources", "raw", "canon",
	"hashed", "spilled",
}

func (a Arg) String() string {
	if int(a) < len(argNames) {
		return argNames[a]
	}
	return "arg" + strconv.Itoa(int(a))
}

// Span is one timed stage within a request: nanosecond offsets from the
// record start, and the arena index of the enclosing span (-1 at top level).
type Span struct {
	Start  int64 // ns offset from record start
	End    int64 // ns offset; 0 means still open at Finish
	Stage  Stage
	Arg    Arg
	Parent int8
}

// Arena geometry: enough for every stage the handlers record plus nesting,
// small enough that a pooled Record stays a few cache lines.
const (
	maxSpans = 16
	maxDepth = 8
	maxIDLen = 48
)

// Record is one request's span arena plus identity fields. Obtained from
// Recorder.Begin, finished exactly once with Finish. The nil Record is
// valid and discards everything — the un-instrumented path.
type Record struct {
	rec                       *Recorder
	t0                        time.Time
	seq                       uint64
	endpoint, predictor, tier string
	spans                     [maxSpans]Span
	id                        [maxIDLen]byte
	fp                        [8]byte
	stack                     [maxDepth]int8
	nspans, depth             uint8
	idLen, fpLen              uint8
	warm, failed              bool
}

func (r *Record) since() int64 {
	return time.Since(r.t0).Nanoseconds()
}

// Start opens a span. Spans nest: the closest open span becomes the parent.
// Beyond the arena or depth limits the span is silently dropped (End still
// balances). No-op on nil.
func (r *Record) Start(stage Stage, arg Arg) {
	if r == nil {
		return
	}
	idx := int8(-1)
	if int(r.nspans) < maxSpans {
		parent := int8(-1)
		if r.depth > 0 && r.depth <= maxDepth {
			parent = r.stack[r.depth-1]
		}
		idx = int8(r.nspans)
		r.spans[idx] = Span{Start: r.since(), Stage: stage, Arg: arg, Parent: parent}
		r.nspans++
	}
	if int(r.depth) < maxDepth {
		r.stack[r.depth] = idx
	}
	r.depth++
}

// End closes the most recently opened span. No-op on nil or when no span
// is open.
func (r *Record) End() {
	if r == nil || r.depth == 0 {
		return
	}
	r.depth--
	if int(r.depth) < maxDepth {
		if i := r.stack[r.depth]; i >= 0 {
			r.spans[i].End = r.since()
		}
	}
}

// SetID copies a client-supplied request ID over the generated one,
// truncated to the arena. No-op on nil or empty.
func (r *Record) SetID(id string) {
	if r == nil || id == "" {
		return
	}
	n := copy(r.id[:], id)
	r.idLen = uint8(n)
}

// ID returns the record's request ID (allocates the string; callers on the
// hot path avoid it unless the record is sampled). Empty on nil.
func (r *Record) ID() string {
	if r == nil {
		return ""
	}
	return string(r.id[:r.idLen])
}

// SetEndpoint, SetPredictor and SetTier label the record. The strings must
// be static (endpoint constants, predictor name table, tier constants) —
// retained views alias them. No-ops on nil.
func (r *Record) SetEndpoint(s string) {
	if r != nil {
		r.endpoint = s
	}
}
func (r *Record) SetPredictor(s string) {
	if r != nil {
		r.predictor = s
	}
}
func (r *Record) SetTier(s string) {
	if r != nil {
		r.tier = s
	}
}

// SetFingerprint copies the leading bytes of a request fingerprint (up to
// 8) for cross-referencing with cache keys. No-op on nil.
func (r *Record) SetFingerprint(p []byte) {
	if r == nil {
		return
	}
	r.fpLen = uint8(copy(r.fp[:], p))
}

// MarkWarm tags the record as a head-sampled warm cache hit: Finish
// retains it unconditionally (the 1-in-K decision already happened in
// SampleWarm) instead of re-rolling the tail sample. No-op on nil.
func (r *Record) MarkWarm() {
	if r != nil {
		r.warm = true
	}
}

// MarkError makes Finish retain the record as an error whatever its
// status — for a batch answered 200 with a failed element inside. No-op on
// nil.
func (r *Record) MarkError() {
	if r != nil {
		r.failed = true
	}
}

// Finish completes the record: applies the tail-sampling decision, retains
// the view in the recorder's ring (and sink) when sampled, and returns the
// arena to the pool. The record must not be used after Finish. No-op on nil.
func (r *Record) Finish(status int) {
	if r == nil {
		return
	}
	rec := r.rec
	dur := r.since()
	var reason string
	switch {
	case status >= 400 || r.failed:
		reason = "error"
	case dur >= rec.slowNs:
		reason = "slow"
	case r.warm:
		reason = "warm"
	default:
		if k := rec.every.Load(); k > 0 && rec.tailSeq.Add(1)%k == 0 {
			reason = "sample"
		}
	}
	if reason != "" {
		v := r.view(status, dur, reason)
		rec.keep(v)
		if s := rec.sink; s != nil {
			s(v)
		}
	}
	r.rec = nil
	rec.pool.Put(r)
}

// view builds the immutable retained form of the record.
func (r *Record) view(status int, dur int64, reason string) *RecordView {
	v := &RecordView{
		Time:      r.t0.UTC().Format(time.RFC3339Nano),
		ID:        r.ID(),
		Endpoint:  r.endpoint,
		Predictor: r.predictor,
		Tier:      r.tier,
		Sampled:   reason,
		TimeNs:    r.t0.UnixNano(),
		DurNs:     dur,
		Seq:       r.seq,
		Status:    status,
	}
	if r.fpLen > 0 {
		v.FP = hex.EncodeToString(r.fp[:r.fpLen])
	}
	if r.nspans > 0 {
		v.Spans = make([]SpanView, r.nspans)
		for i := uint8(0); i < r.nspans; i++ {
			s := r.spans[i]
			end := s.End
			if end == 0 || end < s.Start {
				end = dur // span still open at Finish: close it there
			}
			v.Spans[i] = SpanView{
				Stage:   s.Stage.String(),
				Arg:     s.Arg.String(),
				StartNs: s.Start,
				DurNs:   end - s.Start,
				Parent:  int(s.Parent),
			}
		}
	}
	return v
}

// SpanView is the retained, JSON-ready form of a Span.
type SpanView struct {
	Stage   string `json:"stage"`
	Arg     string `json:"arg,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Parent  int    `json:"parent"`
}

// RecordView is the retained, JSON-ready form of a completed request
// record, as served by /debug/requests.json and written to the access log.
type RecordView struct {
	Time      string     `json:"time"`
	ID        string     `json:"id"`
	Endpoint  string     `json:"endpoint"`
	Predictor string     `json:"predictor,omitempty"`
	Tier      string     `json:"tier,omitempty"`
	FP        string     `json:"fp,omitempty"`
	Sampled   string     `json:"sampled"`
	Spans     []SpanView `json:"spans,omitempty"`
	TimeNs    int64      `json:"time_unix_ns"`
	DurNs     int64      `json:"dur_ns"`
	Seq       uint64     `json:"seq"`
	Status    int        `json:"status"`
}

// RecorderConfig sizes a Recorder. Zero values take the defaults.
type RecorderConfig struct {
	// Entries is the ring capacity: how many retained records
	// /debug/requests can show. Default 256.
	Entries int
	// Slow is the latency threshold above which every request is retained.
	// Default 5ms.
	Slow time.Duration
	// Every retains 1 in Every of the requests that are neither errors nor
	// slow, and head-samples 1 in Every warm cache hits. <= 0 disables both
	// (errors and slow requests are still always retained). Default 16.
	Every int64
}

// recStripes shards the retained-record ring so concurrent Finish calls on
// sampled requests rarely contend.
const recStripes = 8

type recStripe struct {
	buf []*RecordView
	pos int
	mu  sync.Mutex
}

// Recorder is the flight recorder: a pool of Record arenas and a
// lock-striped ring of the last N retained request views. The nil Recorder
// is valid: Begin returns nil (a valid, discarding Record) and SampleWarm
// is false.
type Recorder struct {
	sink     func(*RecordView)
	idPrefix string
	perEntry int
	slowNs   int64
	pool     sync.Pool
	every    atomic.Int64
	warmSeq  atomic.Int64
	tailSeq  atomic.Int64
	retained atomic.Int64
	seq      atomic.Uint64
	stripes  [recStripes]recStripe
}

// NewRecorder builds a Recorder with the given config.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Entries <= 0 {
		cfg.Entries = 256
	}
	if cfg.Slow <= 0 {
		cfg.Slow = 5 * time.Millisecond
	}
	per := (cfg.Entries + recStripes - 1) / recStripes
	rec := &Recorder{
		idPrefix: fmt.Sprintf("%08x", rand.Uint32()),
		perEntry: per,
		slowNs:   cfg.Slow.Nanoseconds(),
	}
	if cfg.Every == 0 {
		cfg.Every = 16
	}
	if cfg.Every > 0 {
		rec.every.Store(cfg.Every)
	}
	for i := range rec.stripes {
		rec.stripes[i].buf = make([]*RecordView, per)
	}
	rec.pool.New = func() any { return new(Record) }
	return rec
}

// Begin starts a request record with a generated request ID
// ("<prefix>-<seq>"). The arena comes from a pool; the call does not
// allocate in steady state. Returns nil on a nil recorder.
func (rec *Recorder) Begin(endpoint string) *Record {
	if rec == nil {
		return nil
	}
	r := rec.pool.Get().(*Record)
	r.rec = rec
	r.t0 = time.Now()
	r.seq = rec.seq.Add(1)
	r.endpoint = endpoint
	r.predictor, r.tier = "", ""
	r.nspans, r.depth, r.fpLen = 0, 0, 0
	r.warm, r.failed = false, false
	b := append(r.id[:0], rec.idPrefix...)
	b = append(b, '-')
	b = strconv.AppendUint(b, r.seq, 10)
	r.idLen = uint8(len(b))
	return r
}

// SampleWarm is the head-sampling decision for the warm cache-hit path:
// true 1-in-Every times. With warm sampling disabled (Every <= 0) the cost
// is a single atomic load and the answer is always false. False on nil.
func (rec *Recorder) SampleWarm() bool {
	if rec == nil {
		return false
	}
	k := rec.every.Load()
	if k <= 0 {
		return false
	}
	return rec.warmSeq.Add(1)%k == 0
}

// SetSink registers a callback invoked with every retained record view
// (the access-log hook). Call before serving; views passed to the sink are
// immutable and may be retained. No-op on nil.
func (rec *Recorder) SetSink(fn func(*RecordView)) {
	if rec != nil {
		rec.sink = fn
	}
}

// Retained reports how many records have been retained since start.
// Zero on nil.
func (rec *Recorder) Retained() int64 {
	if rec == nil {
		return 0
	}
	return rec.retained.Load()
}

func (rec *Recorder) keep(v *RecordView) {
	rec.retained.Add(1)
	s := &rec.stripes[v.Seq&(recStripes-1)]
	s.mu.Lock()
	s.buf[s.pos] = v
	s.pos++
	if s.pos == len(s.buf) {
		s.pos = 0
	}
	s.mu.Unlock()
}

// Snapshot returns the retained records, newest first. Views are immutable
// and shared with the ring. Nil on a nil recorder.
func (rec *Recorder) Snapshot() []*RecordView {
	if rec == nil {
		return nil
	}
	out := make([]*RecordView, 0, recStripes*rec.perEntry)
	for i := range rec.stripes {
		s := &rec.stripes[i]
		s.mu.Lock()
		for _, v := range s.buf {
			if v != nil {
				out = append(out, v)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimeNs != out[j].TimeNs {
			return out[i].TimeNs > out[j].TimeNs
		}
		return out[i].Seq > out[j].Seq
	})
	return out
}

// recordKey carries the per-request *Record through a context.
type recordKey struct{}

// ContextWithRecord attaches r to the context (detaches when r is nil,
// which parallel fan-out uses to keep the single-goroutine invariant).
func ContextWithRecord(ctx context.Context, r *Record) context.Context {
	return context.WithValue(ctx, recordKey{}, r)
}

// RecordFrom returns the request record attached to ctx, or nil.
func RecordFrom(ctx context.Context) *Record {
	r, _ := ctx.Value(recordKey{}).(*Record)
	return r
}

// AccessLogger serializes retained record views as one JSON line each —
// the structured access log behind sentineld's -accesslog flag. Safe for
// concurrent use.
type AccessLogger struct {
	w  io.Writer
	mu sync.Mutex
}

// NewAccessLogger writes JSON lines to w.
func NewAccessLogger(w io.Writer) *AccessLogger {
	return &AccessLogger{w: w}
}

// Log writes one record view as a JSON line. Errors are dropped: the
// access log must never fail a request.
func (l *AccessLogger) Log(v *RecordView) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	data = append(data, '\n')
	l.mu.Lock()
	l.w.Write(data)
	l.mu.Unlock()
}
