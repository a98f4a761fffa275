package core

import (
	"sync"

	"repro/internal/storage"
)

// commit is one page write a tracingStore observed.
type commit struct {
	Epoch uint64
	Page  int
}

// tracingStore records the order of page commits and seals on their way to
// next; the flush-order tests assert on it. The trace is guarded, so
// concurrent committer workers may share one.
type tracingStore struct {
	next storage.Backend

	mu      sync.Mutex
	commits []commit
	sealed  []uint64
}

func (t *tracingStore) WritePage(epoch uint64, page int, data []byte, size int) error {
	t.mu.Lock()
	t.commits = append(t.commits, commit{Epoch: epoch, Page: page})
	t.mu.Unlock()
	return t.next.WritePage(epoch, page, data, size)
}

func (t *tracingStore) EndEpoch(epoch uint64) error {
	t.mu.Lock()
	t.sealed = append(t.sealed, epoch)
	t.mu.Unlock()
	return t.next.EndEpoch(epoch)
}

// Commits returns a copy of the observed commit sequence.
func (t *tracingStore) Commits() []commit {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]commit(nil), t.commits...)
}

// Sealed returns the epochs sealed so far, in order.
func (t *tracingStore) Sealed() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]uint64(nil), t.sealed...)
}
