// Package faultfs wraps a ckpt.FS with deterministic fault injection: an
// operation counter over the mutating operations (Create, writer Close,
// Remove) and an injection plan that can crash-stop the filesystem after
// exactly k operations, tear the write in flight at the crash point, or
// fail individual operations transiently. Because the wrapped writers
// buffer their content and publish it in one shot at Close, "crash after
// op k" has a precise meaning — everything published by the first k-1
// operations is on the inner FS, nothing else is — which is what lets the
// crash-point sweep harness replay one workload crashing at every index
// and assert recovery invariants at each.
//
// Determinism is inherited, not created: under the virtual-time kernel
// (internal/sim) a workload issues the same operation sequence every run,
// so op index k names the same commit-protocol step every time. Under real
// goroutine scheduling the counter is still exact but the op→step mapping
// may vary between runs.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/ckpt"
)

// ErrCrashed is returned by every operation at and after the injected
// crash point: the process is dead, the medium is frozen.
var ErrCrashed = errors.New("faultfs: crashed")

// Plan is an injection plan. The zero Plan injects nothing.
type Plan struct {
	// CrashAtOp crash-stops the filesystem at the 1-based mutating
	// operation with this index: that operation fails with ErrCrashed and
	// publishes nothing (unless Torn is set and the operation is a Close),
	// and every later operation — reads included — fails with ErrCrashed.
	// 0 never crashes.
	CrashAtOp int64
	// Torn simulates a non-atomic medium at the crash point: when the
	// crashing operation is a writer Close, Torn(len) bytes of the staged
	// content (clamped to [0, len]) are published raw to the inner FS —
	// a torn file a recovery scan will actually see. Nil publishes
	// nothing, modeling an atomic-publish medium.
	Torn func(fullLen int) int
	// FailOps fails individual operations transiently: operation index →
	// error. The operation is consumed and performs nothing, but the
	// filesystem keeps running, so callers with retry loops recover.
	FailOps map[int64]error
}

// FS wraps an inner ckpt.FS with the injection plan. It implements
// ckpt.FS; its writers implement ckpt.Aborter.
type FS struct {
	inner ckpt.FS
	plan  Plan

	mu      sync.Mutex
	ops     int64
	crashed bool
}

// Wrap returns inner guarded by plan.
func Wrap(inner ckpt.FS, plan Plan) *FS {
	return &FS{inner: inner, plan: plan}
}

// Ops returns the number of mutating operations counted so far.
func (f *FS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the crash point was reached.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step accounts one mutating operation and applies the plan to it.
// crashing=true means this very operation is the crash point (its caller
// may still apply a torn publish before reporting ErrCrashed).
func (f *FS) step() (crashing bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, ErrCrashed
	}
	f.ops++
	if err, ok := f.plan.FailOps[f.ops]; ok {
		return false, err
	}
	if f.plan.CrashAtOp != 0 && f.ops == f.plan.CrashAtOp {
		f.crashed = true
		return true, ErrCrashed
	}
	return false, nil
}

// alive fails read operations once the filesystem has crashed.
func (f *FS) alive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

type file struct {
	fs   *FS
	name string
	buf  []byte
	done bool
}

func (w *file) Write(p []byte) (int, error) {
	if w.done {
		return 0, fmt.Errorf("faultfs: write to closed file %q", w.name)
	}
	if err := w.fs.alive(); err != nil {
		return 0, err
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Close publishes the staged content to the inner FS in one shot — the
// whole file or, when the crash lands here with a torn plan, a raw prefix
// of it.
func (w *file) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	crashing, err := w.fs.step()
	if err != nil {
		if crashing && w.fs.plan.Torn != nil {
			n := w.fs.plan.Torn(len(w.buf))
			if n > len(w.buf) {
				n = len(w.buf)
			}
			if n >= 0 {
				publishRaw(w.fs.inner, w.name, w.buf[:n])
			}
		}
		return err
	}
	return publishRaw(w.fs.inner, w.name, w.buf)
}

// Abort implements ckpt.Aborter: nothing is published and no operation is
// consumed (an abort is the absence of a publish, not an I/O of its own).
func (w *file) Abort() error {
	w.done = true
	w.buf = nil
	return nil
}

func publishRaw(inner ckpt.FS, name string, data []byte) error {
	g, err := inner.Create(name)
	if err != nil {
		return err
	}
	if _, err := g.Write(data); err != nil {
		ckpt.Discard(g)
		return err
	}
	return g.Close()
}

// Create implements ckpt.FS. It counts as one mutating operation even
// though the inner FS is untouched until Close: crashing here models
// dying just before the file's content exists at all.
func (f *FS) Create(name string) (io.WriteCloser, error) {
	if _, err := f.step(); err != nil {
		return nil, err
	}
	return &file{fs: f, name: name}, nil
}

// Open implements ckpt.FS.
func (f *FS) Open(name string) (io.ReadCloser, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	return f.inner.Open(name)
}

// List implements ckpt.FS.
func (f *FS) List() ([]string, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	return f.inner.List()
}

// Remove implements ckpt.FS.
func (f *FS) Remove(name string) error {
	if _, err := f.step(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// ReadFile reads one file of any ckpt.FS in full.
func ReadFile(fs ckpt.FS, name string) ([]byte, error) {
	r, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// FlipBit corrupts one bit of a file in place (bit counts from the file's
// first byte, LSB first), simulating silent media corruption. The rewrite
// goes through the FS's own Create/Close so it works on any
// implementation.
func FlipBit(fs ckpt.FS, name string, bit int) error {
	data, err := ReadFile(fs, name)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("faultfs: flip bit in empty file %q", name)
	}
	bit %= len(data) * 8
	if bit < 0 {
		bit += len(data) * 8
	}
	data[bit/8] ^= 1 << (bit % 8)
	return publishRaw(fs, name, data)
}

// TruncateFile cuts a file to its first n bytes, simulating a torn write
// discovered after a crash. n at or beyond the file length is a no-op.
func TruncateFile(fs ckpt.FS, name string, n int) error {
	data, err := ReadFile(fs, name)
	if err != nil {
		return err
	}
	if n < 0 {
		n = 0
	}
	if n >= len(data) {
		return nil
	}
	return publishRaw(fs, name, data[:n])
}
