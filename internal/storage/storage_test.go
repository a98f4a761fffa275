package storage

import (
	"bytes"
	"sync"
	"testing"
)

// memSink records the pages a backend under test forwards. Like every real
// Backend it guards its state: TracingStore is exercised with concurrent
// committer workers.
type memSink struct {
	mu     sync.Mutex
	pages  map[[2]uint64][]byte // (epoch, page) -> data
	sealed []uint64
}

func newMemSink() *memSink { return &memSink{pages: map[[2]uint64][]byte{}} }

func (m *memSink) WritePage(epoch uint64, page int, data []byte, size int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages[[2]uint64{epoch, uint64(page)}] = append([]byte(nil), data...)
	return nil
}

func (m *memSink) EndEpoch(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sealed = append(m.sealed, epoch)
	return nil
}

// page returns the recorded content of (epoch, page).
func (m *memSink) page(epoch uint64, page int) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pages[[2]uint64{epoch, uint64(page)}]
}

func TestTracingStoreRecordsOrder(t *testing.T) {
	tr := &TracingStore{}
	tr.WritePage(1, 5, nil, 4096)
	tr.WritePage(1, 2, nil, 4096)
	tr.EndEpoch(1)
	commits := tr.Commits()
	if len(commits) != 2 || commits[0].Page != 5 || commits[1].Page != 2 {
		t.Errorf("commits = %+v", commits)
	}
	if sealed := tr.Sealed(); len(sealed) != 1 || sealed[0] != 1 {
		t.Errorf("sealed = %v", sealed)
	}
	tr.Reset()
	if len(tr.Commits()) != 0 || len(tr.Sealed()) != 0 {
		t.Error("reset did not clear")
	}
}

func TestTracingStoreForwards(t *testing.T) {
	sink := newMemSink()
	tr := &TracingStore{Next: sink}
	data := []byte{1, 2, 3}
	if err := tr.WritePage(2, 7, data, 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.EndEpoch(2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.pages[[2]uint64{2, 7}], data) {
		t.Error("page not forwarded")
	}
	if len(sink.sealed) != 1 {
		t.Error("seal not forwarded")
	}
}

func TestNullStore(t *testing.T) {
	var n NullStore
	if err := n.WritePage(1, 0, nil, 4096); err != nil {
		t.Fatal(err)
	}
	if err := n.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
}
