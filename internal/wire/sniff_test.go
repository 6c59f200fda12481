package wire

import (
	"errors"
	"net"
	"testing"
	"time"
)

// failingListener's Accept blocks until fail closes, then fails.
type failingListener struct {
	fail chan struct{}
}

func (f *failingListener) Accept() (net.Conn, error) {
	<-f.fail
	return nil, errors.New("accept failed")
}

func (f *failingListener) Close() error   { return nil }
func (f *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestSniffListenerCloseRacesFailingAccept closes the split listener while
// its inner Accept is about to fail. Accept must report the close, and the
// failing accept loop must not write the error Accept may be reading (run
// under -race).
func TestSniffListenerCloseRacesFailingAccept(t *testing.T) {
	inner := &failingListener{fail: make(chan struct{})}
	sl := SplitListener(inner, nil)
	accepted := make(chan error)
	go func() {
		_, err := sl.Accept()
		accepted <- err
	}()
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	close(inner.fail)
	if err := <-accepted; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Close = %v, want net.ErrClosed", err)
	}
	// Give the accept loop time to see its inner failure.
	time.Sleep(5 * time.Millisecond)
	if _, err := sl.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("second Accept = %v, want net.ErrClosed", err)
	}
}
