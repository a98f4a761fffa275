package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testMetrics() *Metrics {
	m := New(nil)
	m.Journal = NewJournal(64)
	m.Spans = NewSpanLog(64)
	return m
}

func TestHandlerRejectsNonGet(t *testing.T) {
	h := Handler(testMetrics(), nil, nil)
	for _, route := range []string{"/metrics", "/snapshot", "/trace", "/epochs"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req := httptest.NewRequest(method, route, strings.NewReader("x"))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, route, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != http.MethodGet {
				t.Errorf("%s %s Allow = %q, want GET", method, route, allow)
			}
		}
	}
}

func TestHandlerUnknownRoute(t *testing.T) {
	h := Handler(testMetrics(), nil, nil)
	req := httptest.NewRequest(http.MethodGet, "/nope", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", rec.Code)
	}
}

func TestHandlerEpochs(t *testing.T) {
	m := testMetrics()
	// Without a provider the endpoint serves an empty list, not null.
	rec := httptest.NewRecorder()
	Handler(m, nil, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/epochs", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /epochs = %d", rec.Code)
	}
	if body := strings.TrimSpace(rec.Body.String()); body != "[]" {
		t.Fatalf("nil provider body = %q, want []", body)
	}

	provider := func() []EpochRecord {
		return BuildEpochRecords(
			[]Scorecard{{Epoch: 3, Waits: 1, Avoided: 3, HitRate: 0.75, FaultHeat: []uint32{4}}},
			[]Span{
				{Kind: SpanCommit, Epoch: 3, Start: 0, End: time.Second},
				{Kind: SpanSeal, Epoch: 3, Start: 900 * time.Millisecond, End: time.Second},
			},
		)
	}
	rec = httptest.NewRecorder()
	Handler(m, provider, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/epochs", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// The wire names a scraper reads: a scorecard and a span tree with its
	// critical path per epoch.
	for _, field := range []string{
		`"scorecard"`, `"hit_rate"`, `"rank_correlation"`, `"fault_heat"`,
		`"kind": "epoch"`, `"kind": "commit"`, `"kind": "seal"`, `"critical_path"`, `"bounding"`,
	} {
		if !strings.Contains(rec.Body.String(), field) {
			t.Errorf("/epochs body lacks %s:\n%s", field, rec.Body)
		}
	}
	var records []EpochRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &records); err != nil {
		t.Fatalf("/epochs is not valid JSON: %v", err)
	}
	if len(records) != 1 || records[0].Epoch != 3 {
		t.Fatalf("records = %+v", records)
	}
	if records[0].Scorecard == nil || records[0].Scorecard.HitRate != 0.75 {
		t.Fatalf("scorecard lost in transit: %+v", records[0].Scorecard)
	}
	if records[0].Spans == nil || records[0].Spans.Kind != "epoch" {
		t.Fatalf("span tree lost in transit: %+v", records[0].Spans)
	}
}

// TestHandlerSnapshotRace scrapes every endpoint while the journal, span
// log and counters are being written concurrently; under -race this
// proves a debug scrape can never trip over the hot path.
func TestHandlerSnapshotRace(t *testing.T) {
	m := testMetrics()
	epochs := func() []EpochRecord {
		return BuildEpochRecords(nil, m.Spans.Snapshot())
	}
	h := Handler(m, epochs, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.FaultsCow.Inc()
			m.CommitWriteNs.Observe(int64(i))
			m.Trace(StageWrite, uint64(i), int32(i), 0, 0)
			m.Span(SpanCommit, uint64(i), 0, time.Duration(i), time.Duration(i+1))
		}
	}()
	for i := 0; i < 50; i++ {
		for _, route := range []string{"/metrics", "/snapshot", "/trace", "/epochs"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s = %d during concurrent writes", route, rec.Code)
			}
		}
	}
	close(stop)
	wg.Wait()
}
