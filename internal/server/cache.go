package server

// The source-program compile cache. Workload cells are cached and coalesced
// by the eval.Runner's singleflight caches; inline-source programs get the
// same treatment here, keyed by content hash so identical submissions —
// concurrent or repeated — are assembled, formed and scheduled exactly once
// per machine configuration.

import (
	"context"
	"crypto/sha256"
	"net/http"
	"sync"

	"sentinel/internal/core"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
)

// sourceKey identifies one compiled source program: content hash × machine
// configuration × formation on/off.
type sourceKey struct {
	sum  [sha256.Size]byte
	md   machine.Desc
	form bool
}

// compiled is the read-only compile artifact of one source program; mem is
// the pristine input image, cloned per simulation.
type compiled struct {
	prog  *prog.Program
	stats core.Stats
	mem   *mem.Memory
	ref   *prog.Result

	// index is the simulator's program index, built on the first simulate:
	// a schedule request never needs it.
	indexOnce sync.Once
	index     *sim.ProgIndex
}

// progIndex returns the simulator index of c.prog, building it once.
func (c *compiled) progIndex() *sim.ProgIndex {
	c.indexOnce.Do(func() { c.index = sim.NewProgIndex(c.prog) })
	return c.index
}

type sourceEntry struct {
	done chan struct{}
	val  *compiled
	err  error
}

// sourceCache is a capacity-capped singleflight memo. When the map exceeds
// cap it is dropped wholesale — the artifacts are deterministic, so a cold
// recompute is only a latency cost, and wholesale reset keeps the
// bookkeeping trivial under concurrent fills.
type sourceCache struct {
	mu  sync.Mutex
	m   map[sourceKey]*sourceEntry
	cap int
}

func newSourceCache(capacity int) *sourceCache {
	if capacity < 1 {
		capacity = 1
	}
	return &sourceCache{m: map[sourceKey]*sourceEntry{}, cap: capacity}
}

func (c *sourceCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// get returns the cached compile of k, computing it via fn on first use.
// Errors are cached alongside values (a malformed program stays malformed).
// A caller whose context expires while another goroutine compiles unblocks
// with the context's error. If fn panics, the entry is dropped, its waiters
// get a 500 internal error, and the panic continues in the owner.
func (c *sourceCache) get(ctx context.Context, k sourceKey, fn func() (*compiled, error)) (*compiled, error) {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.mu.Unlock()
		// Completed entries serve without touching the request record; only
		// a genuine wait on another request's compile earns a span.
		select {
		case <-e.done:
			return e.val, e.err
		default:
		}
		rd := obs.RecordFrom(ctx)
		rd.Start(obs.StageSFWait, obs.ArgSources)
		select {
		case <-e.done:
			rd.End()
			return e.val, e.err
		case <-ctx.Done():
			rd.End()
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if len(c.m) >= c.cap {
		c.m = map[sourceKey]*sourceEntry{}
	}
	e := &sourceEntry{done: make(chan struct{})}
	c.m[k] = e
	c.mu.Unlock()
	rd := obs.RecordFrom(ctx)
	rd.Start(obs.StageSFOwn, obs.ArgSources)
	returned := false
	// The deferred resolution runs on a panic too, without recovering it:
	// an unresolved entry would hold every later request for this source
	// until its deadline.
	defer func() {
		rd.End()
		if !returned {
			c.mu.Lock()
			if c.m[k] == e {
				delete(c.m, k)
			}
			c.mu.Unlock()
			e.err = apiErrorf(http.StatusInternalServerError, KindInternal,
				"source compile failed unexpectedly")
		}
		close(e.done)
	}()
	e.val, e.err = fn()
	returned = true
	return e.val, e.err
}
