// Package guardedbytest exercises the guardedby analyzer: annotated
// fields, the xxxLocked convention, lock acquisition through Lock and
// RLock, and //aickpt:allow exemptions.
package guardedbytest

import "sync"

type counter struct {
	mu sync.Mutex
	n  int //aickpt:guardedby mu

	// hits is bumped on every probe.
	//aickpt:guardedby mu
	hits int

	free int // unguarded: accessible anywhere
}

type shared struct {
	rw   sync.RWMutex
	view []int //aickpt:guardedby rw
}

// inc locks, so the guarded accesses are fine.
func (c *counter) inc() {
	c.mu.Lock()
	c.n++
	c.hits++
	c.mu.Unlock()
}

// bumpLocked follows the naming convention: the caller holds mu.
func (c *counter) bumpLocked() {
	c.n++
	c.hits++
}

// steal accesses both guarded fields without the mutex.
func (c *counter) steal() int {
	c.free++
	return c.n + c.hits // want "counter.n is guarded by mu" "counter.hits is guarded by mu"
}

// snapshot reads under the read lock.
func (s *shared) snapshot() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return len(s.view)
}

// peek reads without the lock but states why that is safe.
func (s *shared) peek() int {
	return len(s.view) //aickpt:allow guardedby len is monotone, racy read tolerated
}

// leak reads the slice header without the lock.
func (s *shared) leak() []int {
	return s.view // want "shared.view is guarded by rw"
}

// newCounter builds via composite literal: construction is not a selector
// access, so no lock is needed.
func newCounter() *counter {
	return &counter{n: 1, hits: 2}
}
