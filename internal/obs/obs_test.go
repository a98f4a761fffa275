package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one padded counter from many goroutines:
// the final value must be exact (atomic, no lost updates). Run under -race
// in CI, this also proves the counter is data-race-free.
func TestCounterConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 10000
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramConcurrent checks that concurrent observers lose neither
// counts nor sum, and that max converges to the true maximum through the
// CAS loop.
func TestHistogramConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	if want := uint64(goroutines*perG - 1); s.Max != want {
		t.Fatalf("max = %d, want %d", s.Max, want)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket counts sum to %d, count is %d", bucketTotal, s.Count)
	}
}

// TestHistogramQuantile pins the quantile estimator on a known
// distribution: estimates must stay within the bucket resolution (a
// factor of two) and be clamped by the observed max.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if m := s.Mean(); m < 499 || m > 502 {
		t.Fatalf("mean = %.1f, want ~500.5", m)
	}
	p50 := s.Quantile(0.5)
	if p50 < 250 || p50 > 1000 {
		t.Fatalf("p50 = %.0f, want within a factor of 2 of 500", p50)
	}
	if p100 := s.Quantile(1); p100 > float64(s.Max) {
		t.Fatalf("p100 = %.0f exceeds observed max %d", p100, s.Max)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %.0f, want 0", q)
	}
}

// TestJournalWraparound overfills a small ring: Len stays clamped at
// capacity, and Snapshot returns the newest events in sequence order.
func TestJournalWraparound(t *testing.T) {
	j := NewJournal(16)
	const total = 100
	for i := 0; i < total; i++ {
		j.record(time.Duration(i), StageWrite, uint64(i), int32(i), 0, int64(i))
	}
	if j.Len() != 16 {
		t.Fatalf("len = %d, want 16 after wraparound", j.Len())
	}
	events := j.Snapshot()
	if len(events) != 16 {
		t.Fatalf("snapshot has %d events, want 16", len(events))
	}
	for i, e := range events {
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: seq %d after %d", i, e.Seq, events[i-1].Seq)
		}
		// Only the newest window survives a wrap.
		if e.Seq < total-16 {
			t.Fatalf("stale event seq %d survived a wrap of %d records", e.Seq, total)
		}
		if uint64(e.Epoch) != e.Seq || int64(e.Value) != int64(e.Seq) {
			t.Fatalf("event %d fields scrambled: %+v", i, e)
		}
	}
}

// TestJournalNonPowerOfTwoDepth: depth is rounded up to a power of two
// (the ring mask requires it), so an overfilled journal retains that many.
func TestJournalNonPowerOfTwoDepth(t *testing.T) {
	retained := func(depth int) int {
		j := NewJournal(depth)
		for i := 0; i < 1000; i++ {
			j.record(time.Duration(i), StageWrite, uint64(i), int32(i), 0, int64(i))
		}
		return len(j.Snapshot())
	}
	if got := retained(100); got != 128 {
		t.Fatalf("retained %d, want 128", got)
	}
	if got := retained(0); got != 16 {
		t.Fatalf("retained %d, want the 16-slot minimum", got)
	}
}

// TestJournalConcurrentSnapshot scrapes the ring while writers hammer it:
// no torn events (the seqlock skips mid-write slots) and every returned
// event is internally consistent. The -race run is the real assertion.
func TestJournalConcurrentSnapshot(t *testing.T) {
	j := NewJournal(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					j.record(time.Duration(i), StageFault, uint64(i), int32(i), 0, int64(i))
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		for _, e := range j.Snapshot() {
			if uint64(e.Epoch) != uint64(e.Value) {
				t.Errorf("torn event: epoch %d value %d", e.Epoch, e.Value)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestMetricsNilSafety: every method of a nil *Metrics must be a no-op —
// that is the entire disable mechanism.
func TestMetricsNilSafety(t *testing.T) {
	var m *Metrics
	if m.Now() != 0 {
		t.Fatal("nil Now() != 0")
	}
	m.Trace(StageWrite, 1, 2, 0, 3) // must not panic
	if err := m.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	s := m.TakeSnapshot()
	if s.Counters == nil || len(s.Counters) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

// TestWritePrometheus sanity-checks the exposition text: HELP/TYPE pairs,
// cumulative histogram buckets with a +Inf terminator, and families from
// all four subsystems.
func TestWritePrometheus(t *testing.T) {
	m := New(func() time.Duration { return 42 * time.Millisecond })
	m.CheckpointsTotal.Add(3)
	m.FaultsCow.Inc()
	m.CowInUse.Set(5)
	m.FaultNs.Observe(1500)
	m.FaultNs.Observe(3000)
	m.DedupHits.Add(7)
	m.EpochsDrained.Add(2)
	m.Compactions.Inc()
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE aickpt_core_checkpoints_total counter",
		"aickpt_core_checkpoints_total 3",
		`aickpt_core_faults_total{type="cow"} 1`,
		"aickpt_core_cow_in_use 5",
		"# TYPE aickpt_core_fault_ns histogram",
		"aickpt_core_fault_ns_count 2",
		"aickpt_core_fault_ns_sum 4500",
		`aickpt_core_fault_ns_bucket{le="+Inf"} 2`,
		"aickpt_ckpt_dedup_hits_total 7",
		"aickpt_multilevel_epochs_drained_total 2",
		"aickpt_compact_compactions_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Buckets must be cumulative: the +Inf bucket equals _count.
	if strings.Count(text, "# HELP") != strings.Count(text, "# TYPE") {
		t.Error("HELP/TYPE pairing broken")
	}
}

// TestTakeSnapshotMatchesCounters: the snapshot must agree with the live
// values at the moment of the copy.
func TestTakeSnapshotMatchesCounters(t *testing.T) {
	m := New(func() time.Duration { return 0 })
	m.CommitPages.Add(11)
	m.RecordWriteNs.Observe(100)
	s := m.TakeSnapshot()
	if s.Counters["aickpt_core_commit_pages_total"] != 11 {
		t.Fatalf("snapshot counter = %d, want 11", s.Counters["aickpt_core_commit_pages_total"])
	}
	h := s.Histograms["aickpt_ckpt_record_write_ns"]
	if h.Count != 1 || h.Sum != 100 {
		t.Fatalf("snapshot histogram = %+v, want count 1 sum 100", h)
	}
}

// TestTierAndWorkerIndex pins the label-index clamping.
func TestTierAndWorkerIndex(t *testing.T) {
	if TierIndex(1) != 0 || TierIndex(0) != 0 {
		t.Fatal("TierIndex must map level 1 (and below) to 0")
	}
	if TierIndex(MaxTiers+5) != MaxTiers-1 {
		t.Fatal("TierIndex must clamp to MaxTiers-1")
	}
	if WorkerIndex(3) != 3 || WorkerIndex(MaxWorkers+1) != 1 || WorkerIndex(-1) != 1 {
		t.Fatal("WorkerIndex must fold ids into [0,MaxWorkers)")
	}
}

// TestRingLappedWriterDrops: a writer still inside a slot when the ring
// laps it keeps the slot. The lapping record is dropped rather than
// interleaved with the older one, and a reader sees neither until the
// owner publishes.
func TestRingLappedWriterDrops(t *testing.T) {
	var r ring
	r.init(16)
	// A writer took sequence number 0, claimed slot 0 and stalled.
	r.next.Store(1)
	r.slots[0].state.Store(1)
	r.slots[0].w[0].Store(111)
	for seq := uint64(1); seq <= 16; seq++ { // 16 laps onto slot 0
		r.put(seq, seq, seq, seq)
	}
	recs := r.snapshot()
	if len(recs) != 15 || recs[0].seq != 1 || recs[14].seq != 15 {
		t.Fatalf("while slot 0 is owned: %d records %+v, want sequence numbers 1..15", len(recs), recs)
	}
	for i := 1; i < ringWords; i++ {
		r.slots[0].w[i].Store(111)
	}
	r.slots[0].state.Store(2)
	recs = r.snapshot()
	if len(recs) != 16 || recs[0].seq != 0 || recs[0].w != [ringWords]uint64{111, 111, 111, 111} {
		t.Fatalf("after the owner published: %+v, want record 0 intact", recs)
	}
	// A writer lapped before it claimed finds a newer record and drops too.
	r.next.Store(1)
	r.slots[1].state.Store(2*17 + 2) // slot 1 now holds record 17
	r.put(8, 8, 8, 8)                // sequence number 1
	if last := r.snapshot()[15]; last.seq != 17 || last.w[0] == 8 {
		t.Fatalf("a stale writer overwrote a newer record: %+v", last)
	}
}
