// Package sim provides the execution substrate for AI-Ckpt: an Env
// abstraction over time and synchronization with two implementations, a
// RealEnv backed by the wall clock and Go's sync package (used when the
// checkpointing runtime protects a real application), and a deterministic
// discrete-event Kernel in virtual time (used by the evaluation harness to
// model the paper's testbeds reproducibly).
//
// Code written against Env — in particular the page manager in
// internal/core — runs unchanged in both worlds.
package sim

import (
	"runtime"
	"sync"
	"time"
)

// Cond is the subset of sync.Cond semantics used by the runtime. Virtual
// conds are strictly FIFO, which keeps simulations deterministic.
type Cond interface {
	// Wait atomically unlocks the associated Locker and suspends the
	// caller; on resume the Locker is re-acquired. As with sync.Cond,
	// callers must re-check their predicate in a loop.
	Wait()
	// Signal wakes one waiter, if any.
	Signal()
	// Broadcast wakes all current waiters.
	Broadcast()
}

// Env abstracts the execution environment: time, sleeping, spawning
// concurrent processes, and synchronization primitive construction.
type Env interface {
	// Now returns the time elapsed since the environment started.
	Now() time.Duration
	// Sleep suspends the calling process for d (d <= 0 yields).
	Sleep(d time.Duration)
	// Go starts fn as a new concurrent process. The name is used in
	// deadlock and panic diagnostics.
	Go(name string, fn func())
	// NewMutex returns a mutual-exclusion lock usable with NewCond.
	NewMutex() sync.Locker
	// NewCond returns a condition variable associated with l, which must
	// have been returned by NewMutex of the same Env.
	NewCond(l sync.Locker) Cond
	// Cores returns how many processes can compute at once; 0 means
	// unbounded. The page manager sizes its running commit workers by it.
	Cores() int
}

// RealEnv implements Env with the wall clock and the sync package. The zero
// value is not usable; call NewRealEnv.
type RealEnv struct {
	start time.Time
}

// NewRealEnv returns an Env backed by real time.
func NewRealEnv() *RealEnv { return &RealEnv{start: time.Now()} } //aickpt:walltime RealEnv is the wall-clock Env

// Now implements Env.
func (e *RealEnv) Now() time.Duration { return time.Since(e.start) } //aickpt:walltime

// Sleep implements Env.
func (e *RealEnv) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d) //aickpt:walltime
	}
}

// Go implements Env.
func (e *RealEnv) Go(name string, fn func()) { go fn() }

// NewMutex implements Env.
func (e *RealEnv) NewMutex() sync.Locker { return &sync.Mutex{} }

// NewCond implements Env.
func (e *RealEnv) NewCond(l sync.Locker) Cond { return realCond{sync.NewCond(l)} }

// Cores implements Env: the goroutines that can execute at once.
func (e *RealEnv) Cores() int { return runtime.GOMAXPROCS(0) }

type realCond struct{ c *sync.Cond }

func (c realCond) Wait()      { c.c.Wait() }
func (c realCond) Signal()    { c.c.Signal() }
func (c realCond) Broadcast() { c.c.Broadcast() }

var _ Env = (*RealEnv)(nil)
