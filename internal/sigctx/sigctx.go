// Package sigctx wires process signals to context cancellation for the
// CLIs. The collection pipeline honors context cancellation all the way
// down — DNS retries, SMTP deadlines, backoff timers — but a context
// nobody cancels is inert, and a CLI that dies on SIGINT leaves its work
// wherever it stood. One signal requests graceful shutdown: the context
// is cancelled, and the command keeps what finished (a collection fleet
// spills every worker's buffer as a shard a resume reads; a server
// drains). A second signal force-exits for operators whose graceful
// path is itself wedged.
package sigctx

import (
	"context"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// exit is swapped out by tests.
var exit = os.Exit

// WithInterrupt returns a context that is cancelled on the first SIGINT
// or SIGTERM. A second signal exits the process immediately with the
// conventional 128+signum status. The returned stop function releases
// the signal handler and cancels the context.
func WithInterrupt(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
			cancel()
		})
	}
	go func() {
		select {
		case <-ch:
			cancel()
		case <-done:
			return
		}
		select {
		case sig := <-ch:
			code := 128 + int(syscall.SIGINT)
			if s, ok := sig.(syscall.Signal); ok {
				code = 128 + int(s)
			}
			exit(code)
		case <-done:
		}
	}()
	return ctx, stop
}
