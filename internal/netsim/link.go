// Package netsim models network and I/O channels in virtual time for the
// AI-Ckpt evaluation harness. A Link serializes transfers at a configured
// bandwidth with a per-message latency and setup overhead, exactly the way a
// NIC or a disk head serializes requests: contention between the
// application's communication and the background checkpointing traffic
// emerges from FIFO queueing on the shared link.
package netsim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
)

// LinkConfig describes a serial transfer channel.
type LinkConfig struct {
	// Name appears in diagnostics.
	Name string
	// BytesPerSec is the sustained bandwidth; must be > 0.
	BytesPerSec float64
	// Latency is the one-way propagation delay added to every transfer
	// (it does not occupy the link).
	Latency time.Duration
	// PerMessage is fixed channel occupancy per message regardless of
	// size (request setup, seek, small-write penalty). It occupies the
	// link and is the lever that reproduces the paper's observation that
	// many concurrent 4 KB writes overload PVFS servers.
	PerMessage time.Duration
}

// Link is a FIFO shared channel. Concurrent Transfer calls queue in strict
// arrival order: admission uses a ticket lock, so a caller that finishes a
// transfer and immediately starts another cannot starve earlier arrivals
// (a plain condition-variable guard would allow exactly that, because the
// releaser can re-acquire before a signaled waiter wakes).
type Link struct {
	env sim.Env
	cfg LinkConfig
	mu  sync.Locker

	cond    sim.Cond
	next    uint64 //aickpt:guardedby mu
	serving uint64 //aickpt:guardedby mu

	down bool //aickpt:guardedby mu (failure-injection state: link unreachable)

	messages  int64         //aickpt:guardedby mu (stats, like the three below)
	bytes     int64         //aickpt:guardedby mu
	busyTime  time.Duration //aickpt:guardedby mu
	queueTime time.Duration //aickpt:guardedby mu
}

// NewLink returns a link bound to env.
func NewLink(env sim.Env, cfg LinkConfig) *Link {
	if cfg.BytesPerSec <= 0 {
		panic(fmt.Sprintf("netsim: link %q has non-positive bandwidth", cfg.Name))
	}
	mu := env.NewMutex()
	return &Link{
		env:  env,
		cfg:  cfg,
		mu:   mu,
		cond: env.NewCond(mu),
	}
}

// serialize computes how long the link is occupied by a transfer of n bytes.
func (l *Link) serialize(n int64) time.Duration {
	secs := float64(n) / l.cfg.BytesPerSec
	return l.cfg.PerMessage + time.Duration(secs*float64(time.Second))
}

// Transfer moves n bytes across the link, blocking the calling process for
// queueing + serialization + propagation latency. It must be called from a
// process of the link's Env.
func (l *Link) Transfer(n int64) {
	if n < 0 {
		panic("netsim: negative transfer size")
	}
	enq := l.env.Now()
	l.mu.Lock()
	ticket := l.next
	l.next++
	for ticket != l.serving {
		l.cond.Wait()
	}
	start := l.env.Now()
	l.queueTime += start - enq
	l.mu.Unlock()

	occupied := l.serialize(n)
	l.env.Sleep(occupied)

	l.mu.Lock()
	l.serving++
	l.messages++
	l.bytes += n
	l.busyTime += occupied
	l.cond.Broadcast()
	l.mu.Unlock()

	if l.cfg.Latency > 0 {
		l.env.Sleep(l.cfg.Latency)
	}
}

// Fail marks the link unreachable: subsequent TryTransfer calls fail
// immediately without consuming virtual time, modeling a partitioned node
// or a dead storage path. Transfers already queued complete normally.
func (l *Link) Fail() {
	l.mu.Lock()
	l.down = true
	l.mu.Unlock()
}

// Heal reverses Fail.
func (l *Link) Heal() {
	l.mu.Lock()
	l.down = false
	l.mu.Unlock()
}

// Down reports whether the link is currently failed.
func (l *Link) Down() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// TryTransfer is Transfer with failure awareness: it returns false
// immediately — consuming no virtual time — when the link is down at
// admission, and otherwise performs the full transfer and returns true.
// Tier drains use it so a partitioned peer surfaces as a retryable store
// failure instead of a hang.
func (l *Link) TryTransfer(n int64) bool {
	if l.Down() {
		return false
	}
	l.Transfer(n)
	return true
}

// Stats is a snapshot of link usage counters.
type Stats struct {
	Messages  int64
	Bytes     int64
	BusyTime  time.Duration
	QueueTime time.Duration
}

// Stats returns a snapshot of the usage counters.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Messages: l.messages, Bytes: l.bytes, BusyTime: l.busyTime, QueueTime: l.queueTime}
}
