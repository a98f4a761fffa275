package storage

import (
	"bytes"
	"sync"
	"testing"
)

// The Backend concurrency contract: WritePage may be called concurrently
// for pages of one epoch. Drive TracingStore over a recording sink with many
// goroutines and verify, under the race detector, that every page is traced
// once and survives the trip.
func TestTracingStoreConcurrentWriters(t *testing.T) {
	const pageSize, nPages, writers = 256, 128, 8
	sink := newMemSink()
	stack := &TracingStore{Next: sink}

	content := func(p int) []byte {
		data := make([]byte, pageSize)
		for i := range data {
			data[i] = byte(p*17 + i%251)
		}
		return data
	}
	var wg sync.WaitGroup
	pagesCh := make(chan int)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range pagesCh {
				if err := stack.WritePage(1, p, content(p), pageSize); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for p := 0; p < nPages; p++ {
		pagesCh <- p
	}
	close(pagesCh)
	wg.Wait()
	if err := stack.EndEpoch(1); err != nil {
		t.Fatal(err)
	}

	if got := len(stack.Commits()); got != nPages {
		t.Fatalf("traced %d commits, want %d", got, nPages)
	}
	for p := 0; p < nPages; p++ {
		if !bytes.Equal(sink.page(1, p), content(p)) {
			t.Fatalf("page %d: forwarded content mismatch", p)
		}
	}
}
