package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kernel is a deterministic discrete-event scheduler implementing Env in
// virtual time. Processes are goroutines, but the kernel enforces strict
// handoff: exactly one process executes at any instant, and runnable
// processes are dispatched in (time, sequence) order, so a simulation is a
// pure function of its inputs.
//
// Typical use:
//
//	k := sim.NewKernel()
//	k.Go("driver", func() { ... k.Sleep(...) ... })
//	if err := k.Run(); err != nil { ... }
//
// Env methods other than Go and Now must only be called from inside a
// process started with Go (they suspend the caller).
type Kernel struct {
	now     time.Duration
	seq     uint64
	queue   eventHeap
	current *proc
	yield   chan struct{}
	live    map[*proc]struct{}
	failure *procPanic

	// maxEvents guards against runaway simulations; 0 means no limit.
	maxEvents  uint64
	dispatched uint64
}

type procPanic struct {
	proc  string
	value interface{}
}

type procState int

const (
	stateNew procState = iota
	stateReady
	stateRunning
	stateBlocked // suspended with no pending event (mutex/cond)
	stateDone
)

type proc struct {
	name   string
	resume chan struct{}
	state  procState
}

type event struct {
	at   time.Duration
	seq  uint64
	proc *proc
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{
		yield: make(chan struct{}),
		live:  make(map[*proc]struct{}),
	}
}

// SetMaxEvents bounds the number of process dispatches Run will perform; it
// is a safety valve for tests. 0 (the default) means unbounded.
func (k *Kernel) SetMaxEvents(n uint64) { k.maxEvents = n }

// Now implements Env. It is safe to call from setup code and from processes.
func (k *Kernel) Now() time.Duration { return k.now }

// Go implements Env. It may be called from setup code (before Run) or from a
// running process; the new process becomes runnable at the current virtual
// time.
func (k *Kernel) Go(name string, fn func()) {
	p := &proc{name: name, resume: make(chan struct{}), state: stateReady}
	k.live[p] = struct{}{}
	k.schedule(p, k.now)
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				if k.failure == nil {
					k.failure = &procPanic{proc: p.name, value: r}
				}
			}
			p.state = stateDone
			delete(k.live, p)
			k.yield <- struct{}{}
		}()
		fn()
	}()
}

// Sleep implements Env. Sleep(0) yields to other processes runnable now.
func (k *Kernel) Sleep(d time.Duration) {
	p := k.mustCurrent("Sleep")
	if d < 0 {
		d = 0
	}
	k.schedule(p, k.now+d)
	p.state = stateReady
	k.park(p)
}

// NewMutex implements Env.
func (k *Kernel) NewMutex() sync.Locker { return &vmutex{k: k} }

// NewCond implements Env.
func (k *Kernel) NewCond(l sync.Locker) Cond {
	m, ok := l.(*vmutex)
	if !ok {
		panic("sim: Kernel.NewCond requires a Locker from Kernel.NewMutex")
	}
	return &vcond{k: k, m: m}
}

// Cores implements Env. A process computes in zero virtual time, so any
// number of them run at once: 0, unbounded.
func (k *Kernel) Cores() int { return 0 }

// Run dispatches events until no process is runnable. It returns nil when
// every process has finished, and a *DeadlockError when processes remain
// blocked with no pending events. Panics inside processes are re-raised
// here with the process name attached.
func (k *Kernel) Run() error {
	for len(k.queue) > 0 {
		if k.maxEvents > 0 && k.dispatched >= k.maxEvents {
			return fmt.Errorf("sim: event budget of %d exhausted at t=%v", k.maxEvents, k.now)
		}
		ev := k.pop()
		if ev.proc.state == stateDone {
			continue
		}
		k.dispatched++
		if ev.at < k.now {
			panic("sim: time went backwards")
		}
		k.now = ev.at
		k.current = ev.proc
		ev.proc.state = stateRunning
		ev.proc.resume <- struct{}{}
		<-k.yield
		k.current = nil
		if k.failure != nil {
			f := k.failure
			panic(fmt.Sprintf("sim: process %q panicked: %v", f.proc, f.value))
		}
	}
	if len(k.live) > 0 {
		names := make([]string, 0, len(k.live))
		for p := range k.live {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return &DeadlockError{At: k.now, Blocked: names}
	}
	return nil
}

// DeadlockError reports processes left suspended with no runnable events.
type DeadlockError struct {
	At      time.Duration
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d blocked process(es): %v", e.At, len(e.Blocked), e.Blocked)
}

// park suspends the calling process and hands control back to the kernel
// loop; it returns when the kernel dispatches the process again.
func (k *Kernel) park(p *proc) {
	k.yield <- struct{}{}
	<-p.resume
	p.state = stateRunning
}

// block suspends the current process with no pending event; some other
// process must call unblock to make it runnable again.
func (k *Kernel) block(p *proc) {
	p.state = stateBlocked
	k.park(p)
}

// unblock makes a blocked process runnable at the current virtual time.
func (k *Kernel) unblock(p *proc) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("sim: unblock of process %q in state %d", p.name, p.state))
	}
	p.state = stateReady
	k.schedule(p, k.now)
}

func (k *Kernel) mustCurrent(op string) *proc {
	if k.current == nil {
		panic(fmt.Sprintf("sim: %s called outside a kernel process", op))
	}
	return k.current
}

func (k *Kernel) schedule(p *proc, at time.Duration) {
	k.seq++
	k.push(&event{at: at, seq: k.seq, proc: p})
}

// eventHeap is a binary min-heap ordered by (at, seq).

type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (k *Kernel) push(ev *event) {
	h := append(k.queue, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.less(parent, i) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	k.queue = h
}

func (k *Kernel) pop() *event {
	h := k.queue
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	k.queue = h
	return top
}

// vmutex is a FIFO mutex in virtual time with direct ownership handoff.
type vmutex struct {
	k     *Kernel
	owner *proc
	queue []*proc
}

// setupProc stands in for the caller when Env primitives are used from
// outside any kernel process (i.e. during simulation setup, before Run).
// Setup code runs alone, so it may take an uncontended lock but can never
// block.
var setupProc = &proc{name: "<setup>"}

// Lock implements sync.Locker.
func (m *vmutex) Lock() {
	p := m.k.current
	if p == nil {
		if m.owner == nil {
			m.owner = setupProc
			return
		}
		panic("sim: Mutex.Lock would block outside a kernel process")
	}
	if m.owner == nil {
		m.owner = p
		return
	}
	if m.owner == p {
		panic(fmt.Sprintf("sim: process %q recursively locking mutex", p.name))
	}
	m.queue = append(m.queue, p)
	m.k.block(p)
	// Ownership was handed to us by Unlock before we were resumed.
	if m.owner != p {
		panic("sim: mutex handoff corrupted")
	}
}

// Unlock implements sync.Locker.
func (m *vmutex) Unlock() {
	if m.owner == nil {
		panic("sim: unlock of unlocked mutex")
	}
	if len(m.queue) == 0 {
		m.owner = nil
		return
	}
	next := m.queue[0]
	copy(m.queue, m.queue[1:])
	m.queue = m.queue[:len(m.queue)-1]
	m.owner = next
	m.k.unblock(next)
}

// vcond is a FIFO condition variable in virtual time.
type vcond struct {
	k       *Kernel
	m       *vmutex
	waiters []*proc
}

// Wait implements Cond.
func (c *vcond) Wait() {
	p := c.k.mustCurrent("Cond.Wait")
	if c.m.owner != p {
		panic(fmt.Sprintf("sim: process %q waiting on cond without holding its mutex", p.name))
	}
	c.waiters = append(c.waiters, p)
	c.m.Unlock()
	c.k.block(p)
	c.m.Lock()
}

// Signal implements Cond. Unlike sync.Cond the caller conventionally holds
// the mutex, but the kernel does not require it.
func (c *vcond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.k.unblock(p)
}

// Broadcast implements Cond.
func (c *vcond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, p := range ws {
		c.k.unblock(p)
	}
}

var _ Env = (*Kernel)(nil)
