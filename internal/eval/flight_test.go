package eval

// The sharded flight's contract: shard count is invisible in every
// observable way. The context-error eviction regressions from ctx_test.go
// are re-run here across shard counts {1, 4, 16}, and a determinism test
// pins that values, error caching, hit/miss counts, len and reset behave
// identically no matter how the keys stripe.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/obs"
)

var flightShardCounts = []int{1, 4, 16}

// TestFlightShardWaiterAbandons ports TestFlightGetCtxWaiterAbandons across
// shard counts: an abandoning waiter never evicts the owner's computation.
func TestFlightShardWaiterAbandons(t *testing.T) {
	for _, n := range flightShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			f := &Flight[int, int]{nshards: n}
			block := make(chan struct{})
			computing := make(chan struct{})
			go func() {
				f.Get(context.Background(), 1, func() (int, error) {
					close(computing)
					<-block
					return 42, nil
				}) //nolint:errcheck
			}()
			<-computing

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			if _, err := f.Get(ctx, 1, func() (int, error) { return 0, nil }); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
			}

			close(block)
			v, err := f.Get(context.Background(), 1, func() (int, error) {
				t.Error("recompute after the owner cached the value")
				return 0, nil
			})
			if err != nil || v != 42 {
				t.Fatalf("cached get = %d, %v; want 42, nil", v, err)
			}
		})
	}
}

// TestFlightShardOwnerExpires ports TestFlightGetCtxOwnerExpires across
// shard counts: an owner's context error is evicted, not cached, whichever
// shard the key lands in.
func TestFlightShardOwnerExpires(t *testing.T) {
	for _, n := range flightShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			f := &Flight[int, int]{nshards: n}
			// Spread keys so at least one lands in a non-zero shard when
			// striping is real.
			for k := 0; k < 8; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				_, err := f.Get(ctx, k, func() (int, error) {
					<-ctx.Done()
					return 0, fmt.Errorf("build: %w", ctx.Err())
				})
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("key %d: owner err = %v, want DeadlineExceeded", k, err)
				}
			}
			if got := f.len(); got != 0 {
				t.Fatalf("cache holds %d entries after owner-expired computations", got)
			}
			for k := 0; k < 8; k++ {
				v, err := f.Get(context.Background(), k, func() (int, error) { return 100 + k, nil })
				if err != nil || v != 100+k {
					t.Fatalf("key %d: recompute = %d, %v; want %d, nil", k, v, err, 100+k)
				}
			}
		})
	}
}

// TestFlightShardCountInvisible runs the same deterministic workload against
// every shard count and demands identical observables: every value, every
// cached error, the hit/miss totals, len before and after reset.
func TestFlightShardCountInvisible(t *testing.T) {
	type observed struct {
		vals       map[int]int
		errs       map[int]string
		hits       int64
		misses     int64
		size       int
		afterReset int
	}
	boom := errors.New("boom")
	drive := func(f *Flight[int, int]) observed {
		o := observed{vals: map[int]int{}, errs: map[int]string{}}
		// 32 keys, even ones succeed, odd ones fail; each looked up 3 times
		// (1 miss + 2 hits per key, cached errors included).
		for pass := 0; pass < 3; pass++ {
			for k := 0; k < 32; k++ {
				v, err := f.Get(context.Background(), k, func() (int, error) {
					if k%2 == 1 {
						return 0, fmt.Errorf("key %d: %w", k, boom)
					}
					return k * k, nil
				})
				if err != nil {
					o.errs[k] = err.Error()
				} else {
					o.vals[k] = v
				}
			}
		}
		o.hits, o.misses = f.hits.Load(), f.misses.Load()
		o.size = f.len()
		f.reset()
		o.afterReset = f.len()
		return o
	}

	var base observed
	for i, n := range flightShardCounts {
		got := drive(&Flight[int, int]{nshards: n})
		if i == 0 {
			base = got
			// Sanity on the baseline itself before comparing against it.
			if base.misses != 32 || base.hits != 64 || base.size != 32 || base.afterReset != 0 {
				t.Fatalf("baseline observables off: %+v", base)
			}
			continue
		}
		if got.hits != base.hits || got.misses != base.misses ||
			got.size != base.size || got.afterReset != base.afterReset {
			t.Errorf("shards=%d: counters (hits=%d misses=%d size=%d reset=%d) != baseline (%d %d %d %d)",
				n, got.hits, got.misses, got.size, got.afterReset,
				base.hits, base.misses, base.size, base.afterReset)
		}
		for k, v := range base.vals {
			if got.vals[k] != v {
				t.Errorf("shards=%d: key %d = %d, baseline %d", n, k, got.vals[k], v)
			}
		}
		for k, e := range base.errs {
			if got.errs[k] != e {
				t.Errorf("shards=%d: key %d error %q, baseline %q", n, k, got.errs[k], e)
			}
		}
	}

	// The zero value (implicit default shard count) matches too.
	var zf Flight[int, int]
	if got := drive(&zf); got.hits != base.hits || got.misses != base.misses || got.size != base.size {
		t.Errorf("zero-value flight observables diverge: %+v != %+v", got, base)
	}
}

// TestFlightShardConcurrentSingleflight: under 64 goroutines hammering 8
// keys, each key's function runs exactly once per shard configuration.
func TestFlightShardConcurrentSingleflight(t *testing.T) {
	for _, n := range flightShardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			f := &Flight[int, int]{nshards: n}
			var computes atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 64; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						k := (g + i) % 8
						v, err := f.Get(context.Background(), k, func() (int, error) {
							computes.Add(1)
							return k * 10, nil
						})
						if err != nil || v != k*10 {
							t.Errorf("key %d = %d, %v; want %d, nil", k, v, err, k*10)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if got := computes.Load(); got != 8 {
				t.Errorf("computed %d times for 8 keys; singleflight broken", got)
			}
			if got := f.len(); got != 8 {
				t.Errorf("len = %d, want 8", got)
			}
		})
	}
}

// TestFlightBound: a bounded flight never holds more than its bound, for
// bounds below, at and above the default shard count, while every Get
// still answers with its key's own value; bound 0 keeps every key.
func TestFlightBound(t *testing.T) {
	const keys = 300
	for _, bound := range []int{0, 1, 3, 16, 40, 256} {
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			f := NewFlight[int, int](obs.ArgNone, bound)
			limit := bound
			if bound == 0 {
				limit = keys
			}
			for i := 0; i < 1000; i++ {
				k := i % keys
				v, err := f.Get(context.Background(), k, func() (int, error) { return 3 * k, nil })
				if err != nil || v != 3*k {
					t.Fatalf("key %d = %d, %v; want %d, nil", k, v, err, 3*k)
				}
				if n := f.len(); n > limit {
					t.Fatalf("after key %d: %d entries, limit %d", k, n, limit)
				}
			}
			if bound == 0 && f.len() != keys {
				t.Fatalf("unbounded flight holds %d of %d keys", f.len(), keys)
			}
		})
	}
}
