package obs

import (
	"sort"
	"sync/atomic"
)

// ringWords is the payload width of one ring record: Event and Span each
// pack into four words.
const ringWords = 4

// ringSlot is one ring entry. Every word is accessed atomically so put
// and snapshot never race. state is the seqlock: 0 = empty, 2n+1 = record
// n being written, 2n+2 = record n complete; readers validate state
// before and after reading the payload words, and a writer owns the slot
// from its claiming compare-and-swap until it publishes.
type ringSlot struct {
	state atomic.Uint64
	w     [ringWords]atomic.Uint64
}

// ring is the bounded, lock-free ring buffer under the trace Journal and
// the SpanLog. Writers take a sequence number with one atomic fetch-add,
// claim its slot with one compare-and-swap and publish it seqlock-style;
// when the ring wraps, the oldest records are overwritten — it is a
// flight recorder, not a log. snapshot never blocks writers and writers
// never block each other, so recording is safe on every hot path and a
// scrape can never stall a Checkpoint.
type ring struct {
	mask  uint64
	next  atomic.Uint64
	slots []ringSlot
}

// ringRecord is one record read back by snapshot.
type ringRecord struct {
	seq uint64
	w   [ringWords]uint64
}

// init sizes the ring to hold the most recent depth records (rounded up
// to a power of two, minimum 16).
func (r *ring) init(depth int) {
	n := 16
	for n < depth {
		n <<= 1
	}
	r.mask, r.slots = uint64(n-1), make([]ringSlot, n)
}

// Len returns the number of records currently retained (at most the
// capacity).
func (r *ring) Len() int {
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// put appends one record. Allocation-free: one fetch-add, one
// compare-and-swap and five atomic stores. A writer the ring has lapped —
// the slot is mid-write by another writer, or already holds a newer
// record — drops its record rather than wait or interleave its words with
// the other's.
//
//aickpt:hotpath
func (r *ring) put(w0, w1, w2, w3 uint64) {
	seq := r.next.Add(1) - 1
	s := &r.slots[seq&r.mask]
	writing := 2*seq + 1
	old := s.state.Load()
	if old&1 == 1 || old > writing || !s.state.CompareAndSwap(old, writing) {
		return
	}
	s.w[0].Store(w0)
	s.w[1].Store(w1)
	s.w[2].Store(w2)
	s.w[3].Store(w3)
	s.state.Store(writing + 1) // publish
}

// snapshot returns the retained records ordered by sequence number. It
// takes no locks: slots caught mid-write (or overwritten while being
// read) are skipped, so a snapshot under heavy recording is a consistent
// sample rather than a stall.
func (r *ring) snapshot() []ringRecord {
	out := make([]ringRecord, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		for attempt := 0; attempt < 2; attempt++ {
			state := s.state.Load()
			if state == 0 {
				break
			}
			if state&1 == 1 {
				continue // mid-write; retry once
			}
			rec := ringRecord{seq: state/2 - 1}
			for i := range rec.w {
				rec.w[i] = s.w[i].Load()
			}
			if s.state.Load() != state {
				continue // overwritten mid-read; retry once
			}
			out = append(out, rec)
			break
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}
