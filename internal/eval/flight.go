package eval

// Flight is a singleflight-style memo: the first caller of a key computes
// the value while later callers block on it; afterwards the value is served
// from the cache. Errors are cached alongside values — within one process
// the inputs are deterministic, so recomputing a failed artifact cannot
// succeed. Hit/miss counts are tracked so the Runner's metrics can expose
// cache effectiveness and growth. The Runner's four artifact caches and the
// server's inline-source compile memo are all Flights.
//
// The map is striped over a power-of-two number of shards, each behind its
// own mutex, with the shard picked by a cheap hash of the key. A warm
// lookup therefore contends only with other keys that happen to share its
// shard, never with the whole request population — on the serving hot path
// every /v1 request takes four of these lookups (builds, forms, scheds,
// cells), and a single mutex in front of them serialized the entire warm
// path. Shard choice is invisible in every observable way: values, error
// caching, context-error eviction, reset, len and hit/miss counts are
// byte-for-byte what the single-map implementation produced (the
// determinism tests in flight_test.go pin this across shard counts).

import (
	"context"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"sentinel/internal/obs"
)

// ErrComputePanicked is what the waiters on a computation that panicked
// get: the entry is dropped and they are released at once, while the panic
// continues in the goroutine that ran the computation.
var ErrComputePanicked = errors.New("eval: computation panicked")

// flightSeed is the process-wide seed for shard selection. Sharing one seed
// across every flight keeps the hash cheap to compute and the shard choice
// stable within a process; it carries no security weight (keys are not
// attacker-controlled map-flood vectors — a full shard is just a slower
// shard).
var flightSeed = maphash.MakeSeed()

// defaultFlightShards is the shard count a zero-value flight initializes
// itself with: enough stripes that 16 admission slots' worth of concurrent
// requests rarely collide, small enough that reset/len stay trivial.
const defaultFlightShards = 16

type flightShard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Flight's zero value is ready to use: unbounded, unlabelled, with
// defaultFlightShards shards materialized on first access.
type Flight[K comparable, V any] struct {
	once    sync.Once
	shards  []flightShard[K, V]
	nshards int // desired shard count; 0 selects defaultFlightShards
	// bound caps the entries held (0: unbounded). Each shard holds at most
	// shardCap = bound/len(shards) of them and is emptied wholesale when a
	// new key finds it full: the values are deterministic, so dropping one
	// costs a recompute, never a wrong answer.
	bound, shardCap int
	hits, misses    atomic.Int64
	// arg labels this flight's wait/own spans in request records (which
	// artifact cache a request blocked on). Set once at construction,
	// before any Get; ArgNone on flights nobody instruments.
	arg obs.Arg
}

// NewFlight returns a Flight whose wait/own spans carry arg and that holds
// at most bound entries (bound < 1: unbounded).
func NewFlight[K comparable, V any](arg obs.Arg, bound int) *Flight[K, V] {
	return &Flight[K, V]{arg: arg, bound: bound}
}

func (f *Flight[K, V]) init() {
	n := f.nshards
	if n <= 0 {
		n = defaultFlightShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	if f.bound > 0 {
		for p > f.bound {
			p >>= 1
		}
		f.shardCap = f.bound / p
	}
	f.shards = make([]flightShard[K, V], p)
}

func (f *Flight[K, V]) shard(k K) *flightShard[K, V] {
	f.once.Do(f.init)
	h := maphash.Comparable(flightSeed, k)
	return &f.shards[h&uint64(len(f.shards)-1)]
}

// Get returns the value of k, computing it with fn on first use. A caller
// whose context expires while the value is computed by another goroutine
// unblocks immediately with the context's error, and an already-expired
// context never starts a computation. Real errors are cached like values
// (deterministic inputs cannot recompute differently), but a context error
// is the owner's deadline talking, not a property of the artifact: the
// entry is dropped before waiters are released, so the next caller
// recomputes instead of being served a dead request's timeout forever. If
// fn panics, the entry is dropped too, its waiters get ErrComputePanicked,
// and the panic continues in the caller that ran fn.
func (f *Flight[K, V]) Get(ctx context.Context, k K, fn func() (V, error)) (V, error) {
	var zero V
	s := f.shard(k)
	s.mu.Lock()
	if s.m == nil {
		s.m = map[K]*flightCall[V]{}
	}
	if c, ok := s.m[k]; ok {
		s.mu.Unlock()
		f.hits.Add(1)
		// Completed entries — the warm path — serve without touching the
		// request record; only a genuine wait on another goroutine's
		// in-flight computation earns a span.
		select {
		case <-c.done:
			return c.val, c.err
		default:
		}
		rec := obs.RecordFrom(ctx)
		rec.Start(obs.StageSFWait, f.arg)
		select {
		case <-c.done:
			rec.End()
			return c.val, c.err
		case <-ctx.Done():
			rec.End()
			return zero, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return zero, err
	}
	if f.shardCap > 0 && len(s.m) >= f.shardCap {
		clear(s.m)
	}
	c := &flightCall[V]{done: make(chan struct{})}
	s.m[k] = c
	s.mu.Unlock()
	f.misses.Add(1)
	rec := obs.RecordFrom(ctx)
	rec.Start(obs.StageSFOwn, f.arg)
	returned := false
	// The deferred release runs on a panic too, without recovering it: an
	// unreleased entry would hold every later caller of k until its
	// deadline.
	defer func() {
		rec.End()
		if !returned {
			c.err = ErrComputePanicked
		}
		if !returned || errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
			s.mu.Lock()
			if s.m[k] == c {
				delete(s.m, k)
			}
			s.mu.Unlock()
		}
		close(c.done)
	}()
	c.val, c.err = fn()
	returned = true
	return c.val, c.err
}

// len returns the number of cached entries (including in-flight ones).
func (f *Flight[K, V]) len() int {
	f.once.Do(f.init)
	n := 0
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// reset drops every cached entry. It must not race with Get: callers reset
// between sweeps, not during one.
func (f *Flight[K, V]) reset() {
	f.once.Do(f.init)
	for i := range f.shards {
		s := &f.shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
}
