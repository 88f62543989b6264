package ctxflow

import (
	"context"
	"sync"
)

// WaitReady parks on a condition variable the context cannot wake.
// lockhold exempts Cond.Wait, because the wait releases the mutex, but a
// canceled caller is still left waiting, so ctxflow reports it.
func WaitReady(ctx context.Context, c *sync.Cond, ready func() bool) {
	c.L.Lock()
	for !ready() {
		c.Wait()
	}
	c.L.Unlock()
}

// SendLater returns a closure that sends on ch. The send runs when a
// caller invokes the closure, not in SendLater, so it is not reported.
func SendLater(ctx context.Context, ch chan<- int) func() {
	return func() { ch <- 1 }
}
