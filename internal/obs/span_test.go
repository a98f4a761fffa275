package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSpanLogRecordAndSnapshot(t *testing.T) {
	l := NewSpanLog(16)
	l.record(SpanCommit, 1, 0, 0, 100)
	l.record(SpanSeal, 1, 0, 90, 100)
	l.record(SpanPromote, 1, 2, 100, 250)
	spans := l.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot holds %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Seq != uint64(i) {
			t.Fatalf("span %d has seq %d, want in-order sequence", i, s.Seq)
		}
	}
	p := spans[2]
	if p.Kind != SpanPromote || p.Epoch != 1 || p.Tier != 2 || p.Start != 100 || p.End != 250 {
		t.Fatalf("promote span round-trip = %+v", p)
	}
	if p.Dur() != 150 {
		t.Fatalf("Dur = %v, want 150", p.Dur())
	}
}

func TestSpanLogWraparound(t *testing.T) {
	l := NewSpanLog(16)
	for i := 0; i < 40; i++ {
		l.record(SpanCommit, uint64(i), 0, time.Duration(i), time.Duration(i+1))
	}
	spans := l.Snapshot()
	if len(spans) != 16 {
		t.Fatalf("snapshot holds %d spans, want the 16 newest", len(spans))
	}
	// The ring keeps the most recent 16: seqs 24..39 in order.
	for i, s := range spans {
		want := uint64(24 + i)
		if s.Seq != want || s.Epoch != want {
			t.Fatalf("span %d = seq %d epoch %d, want %d", i, s.Seq, s.Epoch, want)
		}
	}
}

func TestSpanLogDepthRounding(t *testing.T) {
	for _, tc := range []struct{ depth, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {1000, 1024},
	} {
		l := NewSpanLog(tc.depth)
		for i := 0; i < 2*tc.want; i++ {
			l.record(SpanCommit, uint64(i), 0, time.Duration(i), time.Duration(i+1))
		}
		if got := len(l.Snapshot()); got != tc.want {
			t.Errorf("NewSpanLog(%d) overfilled retains %d spans, want %d", tc.depth, got, tc.want)
		}
	}
}

// TestSpanLogConcurrentSnapshot hammers the ring from several writers
// while snapshotting: under -race this proves the seqlock publication,
// and every span a snapshot returns must be internally consistent
// (End = Start+1 here, never a torn mix of two records).
func TestSpanLogConcurrentSnapshot(t *testing.T) {
	l := NewSpanLog(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				at := time.Duration(i*4 + w)
				l.record(SpanPromote, uint64(at), int8(w), at, at+1)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for _, s := range l.Snapshot() {
			if s.End != s.Start+1 || s.Epoch != uint64(s.Start) {
				t.Fatalf("torn span: %+v", s)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestMetricsSpanNilSafety(t *testing.T) {
	var m *Metrics
	m.Span(SpanCommit, 1, 0, 0, 1) // nil receiver
	m2 := New(nil)
	m2.Span(SpanCommit, 1, 0, 0, 1) // no span log attached
}

func TestScoreHitRate(t *testing.T) {
	for _, tc := range []struct {
		waits, cows, avoided int
		want                 float64
	}{
		{0, 0, 0, 0},
		{0, 0, 5, 1},
		{5, 5, 0, 0},
		{1, 1, 2, 0.5},
	} {
		if got := ScoreHitRate(tc.waits, tc.cows, tc.avoided); got != tc.want {
			t.Errorf("ScoreHitRate(%d,%d,%d) = %v, want %v", tc.waits, tc.cows, tc.avoided, got, tc.want)
		}
	}
}

func TestScoreRankCorrelation(t *testing.T) {
	approx := func(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }
	// Identical orders: zero displacement.
	if got := ScoreRankCorrelation(0, 8, 8, 8); got != 1 {
		t.Errorf("identical orders = %v, want 1", got)
	}
	// Exactly reversed orders of n=4 on ranks 1..4: F = 2+0+0+2... compute
	// |1-4|+|2-3|+|3-2|+|4-1| = 8; corr = 1 - 3*8/(4*3) = -1 (clamped).
	if got := ScoreRankCorrelation(8, 4, 4, 4); got != -1 {
		t.Errorf("reversed orders = %v, want clamp to -1", got)
	}
	// Mid-range value with unequal lengths: scale = max(8, 4) = 8.
	if got := ScoreRankCorrelation(6, 4, 8, 4); !approx(got, 1-18.0/28.0) {
		t.Errorf("mixed = %v, want %v", got, 1-18.0/28.0)
	}
	// Degenerate inputs.
	if got := ScoreRankCorrelation(0, 0, 8, 8); got != 0 {
		t.Errorf("no pairs = %v, want 0", got)
	}
	if got := ScoreRankCorrelation(0, 1, 1, 1); got != 0 {
		t.Errorf("scale 1 = %v, want 0", got)
	}
}

func TestBuildEpochRecords(t *testing.T) {
	ms := time.Millisecond
	cards := []Scorecard{
		{Epoch: 1, PagesFlushed: 8, FaultArrivals: 4, Waits: 1, Cows: 1, Avoided: 1, HitRate: 1.0 / 3.0},
	}
	spans := []Span{
		{Seq: 0, Kind: SpanCommit, Epoch: 1, Start: 0, End: 800 * ms},
		{Seq: 1, Kind: SpanSeal, Epoch: 1, Start: 700 * ms, End: 800 * ms},
		{Seq: 2, Kind: SpanDrainWait, Epoch: 1, Tier: 1, Start: 800 * ms, End: 900 * ms},
		{Seq: 3, Kind: SpanPromote, Epoch: 1, Tier: 1, Start: 900 * ms, End: 2000 * ms},
		// A span-only epoch: no scorecard ever recorded for it.
		{Seq: 4, Kind: SpanRestore, Epoch: 2, Tier: 2, Start: 2000 * ms, End: 2500 * ms},
	}
	recs := BuildEpochRecords(cards, spans)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}

	r1 := recs[0]
	if r1.Epoch != 1 || r1.Scorecard == nil || r1.Scorecard.FaultArrivals != 4 {
		t.Fatalf("record 1 = %+v", r1)
	}
	if r1.TotalNs != int64(2000*ms) {
		t.Fatalf("record 1 total = %d, want 2s", r1.TotalNs)
	}
	// Tree shape: root(epoch) -> [commit -> [seal], drain-wait, promote].
	root := r1.Spans
	if root == nil || root.Kind != "epoch" || len(root.Children) != 3 {
		t.Fatalf("root = %+v", root)
	}
	commit := root.Children[0]
	if commit.Kind != "commit" || len(commit.Children) != 1 || commit.Children[0].Kind != "seal" {
		t.Fatalf("commit node = %+v", commit)
	}
	if root.Children[1].Kind != "drain-wait" || root.Children[2].Kind != "promote" {
		t.Fatalf("root children = %+v", root.Children)
	}
	// Critical path: promote 1100ms > flush (800-100=700ms) > seal 100ms =
	// drain-wait 100ms; bounding stage names the tier.
	if r1.Bounding != "promote[1]" {
		t.Fatalf("bounding = %q, want promote[1]", r1.Bounding)
	}
	if len(r1.Critical) != 4 {
		t.Fatalf("critical path has %d stages, want 4", len(r1.Critical))
	}
	if r1.Critical[0].Stage != "promote" || r1.Critical[0].DurNs != int64(1100*ms) {
		t.Fatalf("critical[0] = %+v", r1.Critical[0])
	}
	if r1.Critical[1].Stage != "flush" || r1.Critical[1].DurNs != int64(700*ms) {
		t.Fatalf("critical[1] = %+v (flush must exclude the seal)", r1.Critical[1])
	}
	if share := r1.Critical[0].Share; share != 0.55 {
		t.Fatalf("promote share = %v, want 0.55", share)
	}

	r2 := recs[1]
	if r2.Epoch != 2 || r2.Scorecard != nil || r2.Bounding != "restore[2]" {
		t.Fatalf("span-only record = %+v", r2)
	}
	if r2.TotalNs != int64(500*ms) {
		t.Fatalf("record 2 total = %d, want 500ms", r2.TotalNs)
	}

	// Scorecard-only epochs carry no tree; spans may be empty.
	only := BuildEpochRecords([]Scorecard{{Epoch: 7}}, nil)
	if len(only) != 1 || only[0].Spans != nil || only[0].Scorecard == nil {
		t.Fatalf("scorecard-only records = %+v", only)
	}
	if got := BuildEpochRecords(nil, nil); len(got) != 0 {
		t.Fatalf("empty inputs produced %d records", len(got))
	}
}
