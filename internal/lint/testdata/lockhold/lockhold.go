// Package lockhold exercises the lock-hold rule: CFG paths that hold a
// sync.Mutex or RWMutex across a blocking operation are flagged;
// unlock-before-block, matched read locks, and sync.Cond.Wait (which
// releases the mutex while parked) pass.
package lockhold

import (
	"net/http"
	"sync"
)

// S is the guarded structure the fixture's methods share.
type S struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	cond  *sync.Cond
	ready bool
	ch    chan int
	q     chan int
	v     int
}

// flush blocks on a channel send; calling it under the lock is the
// transitive positive.
func (s *S) flush() {
	s.ch <- 1
}

// Push holds s.mu across the transitively blocking callee.
func (s *S) Push() {
	s.mu.Lock()
	s.flush()
	s.mu.Unlock()
}

// Fetch holds the deferred-unlock lock across an HTTP round-trip — the
// defer keeps the lock held to the function's exit.
func (s *S) Fetch(c *http.Client, req *http.Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Recv blocks on a direct channel receive while holding the lock.
func (s *S) Recv() int {
	s.mu.Lock()
	v := <-s.ch
	s.mu.Unlock()
	return v
}

// ReleasedFirst unlocks before blocking — the clean ordering.
func (s *S) ReleasedFirst() int {
	s.mu.Lock()
	v := s.v
	s.mu.Unlock()
	v += <-s.ch
	return v
}

// ReadSide pairs RLock with RUnlock; the matched release ends the path.
func (s *S) ReadSide() int {
	s.rw.RLock()
	v := s.v
	s.rw.RUnlock()
	return v
}

// WaitReady parks on the condition variable, which releases the mutex
// while waiting — exempt by design.
func (s *S) WaitReady() {
	s.mu.Lock()
	for !s.ready {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Drain documents a deliberate hold.
func (s *S) Drain() int {
	s.mu.Lock()
	//lint:allow lockhold — fixture: single-consumer drain holds the lock deliberately
	v := <-s.q
	s.mu.Unlock()
	return v
}

// LoopBack takes the lock at the bottom of an endless loop and never
// releases it, so from the second iteration on the receive runs with
// s.mu held: the path reaches it around the loop's back edge.
func (s *S) LoopBack() {
	for {
		<-s.q
		s.mu.Lock()
		s.v++
	}
}

// TryRecv polls under the lock: a select with a default never parks,
// so its receive case is not a hold.
func (s *S) TryRecv() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		return v, true
	default:
		return 0, false
	}
}

// WaitEither parks in a select without default while holding the lock;
// the hold is the select statement, not either of its cases.
func (s *S) WaitEither() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		return v
	case s.q <- 1:
		return 0
	}
}

// DrainAll ranges over a channel while holding the lock: every
// iteration parks on a receive.
func (s *S) DrainAll() {
	s.mu.Lock()
	for v := range s.q {
		s.v += v
	}
	s.mu.Unlock()
}
