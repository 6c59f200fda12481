package server

import (
	"context"
	"crypto/sha256"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"sentinel/internal/eval"
)

// doneSignal is a context that reports the first call to Done: in
// eval.Flight.Get only a caller that found another request's unfinished
// entry selects on its context, so the signal means "now waiting".
type doneSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *doneSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestSourceCachePanicReleasesWaiters pins the resolution of an
// inline-source memo entry whose compile panics: the panic still reaches
// the owner, a concurrent waiter is released at once with an error that
// maps to the 500 internal envelope instead of waiting out its deadline,
// and the next get for the key compiles afresh.
func TestSourceCachePanicReleasesWaiters(t *testing.T) {
	c := New(Config{Workers: 1}).sources
	k := sourceKey{sum: sha256.Sum256([]byte("panicking source"))}

	started, unblock := make(chan struct{}), make(chan struct{})
	ownerPanic := make(chan any, 1)
	go func() {
		defer func() { ownerPanic <- recover() }()
		c.Get(context.Background(), k, func() (*compiled, error) {
			close(started)
			<-unblock
			panic("compile exploded")
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	wctx := &doneSignal{Context: ctx, waiting: make(chan struct{})}
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.Get(wctx, k, func() (*compiled, error) {
			return nil, errors.New("waiter compiled instead of waiting")
		})
		waiterErr <- err
	}()
	<-wctx.waiting
	close(unblock)

	if got := <-ownerPanic; got != "compile exploded" {
		t.Fatalf("owner recovered %v, want the compile's panic", got)
	}
	err := <-waiterErr
	if ae := toAPIError(err); !errors.Is(err, eval.ErrComputePanicked) ||
		ae.Status != http.StatusInternalServerError || ae.Kind != KindInternal {
		t.Fatalf("waiter got %v, want %v as a 500 %s error", err, eval.ErrComputePanicked, KindInternal)
	}
	if ctx.Err() != nil {
		t.Fatal("waiter was released only by its deadline")
	}

	want := &compiled{}
	got, err := c.Get(ctx, k, func() (*compiled, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("get after the panic = %p, %v; want a fresh compile %p", got, err, want)
	}
}
