package aickpt

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// stallStore blocks every WritePage until released, freezing the commit
// pipeline mid-epoch so tests can probe the runtime while an epoch is
// active.
type stallStore struct {
	once    sync.Once
	release chan struct{}
	started chan int
}

func newStallStore() *stallStore {
	return &stallStore{release: make(chan struct{}), started: make(chan int, 64)}
}

func (s *stallStore) WritePage(epoch uint64, page int, data []byte, size int) error {
	select {
	case s.started <- page:
	default:
	}
	<-s.release
	return nil
}

func (s *stallStore) EndEpoch(epoch uint64) error { return nil }

func (s *stallStore) open() { s.once.Do(func() { close(s.release) }) }

// sinkStore is the trivial backend for tests that only need a runtime.
type sinkStore struct{}

func (sinkStore) WritePage(epoch uint64, page int, data []byte, size int) error { return nil }
func (sinkStore) EndEpoch(epoch uint64) error                                   { return nil }

// TestScrapeNeverBlocksCheckpoint is the regression test for the
// zero-overhead contract: with an epoch frozen mid-commit, scraping every
// debug endpoint must succeed immediately — the scrape takes no runtime
// lock — and a concurrent Checkpoint request must not be delayed by
// scrapes beyond what the frozen committer already imposes.
func TestScrapeNeverBlocksCheckpoint(t *testing.T) {
	const pages = 8
	const pageSize = 4096
	store := newStallStore()
	rt, err := New(Options{
		PageSize:  pageSize,
		Store:     store,
		CowBuffer: pages * pageSize,
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		store.open()
		rt.Close()
	}()
	addr := rt.DebugAddr()
	if addr == "" {
		t.Fatal("DebugAddr empty with a debug server requested")
	}

	r := rt.MallocProtected(pages * pageSize)
	buf := make([]byte, pageSize)
	for p := 0; p < pages; p++ {
		r.Write(p*pageSize, buf)
	}
	rt.Checkpoint()
	<-store.started // committer is now frozen inside WritePage

	get := func(path string) []byte {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s with a frozen epoch: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	expo := string(get("/metrics"))
	for _, family := range []string{
		"aickpt_core_checkpoints_total",
		"aickpt_core_faults_total",
		"aickpt_core_checkpoint_blocked_ns",
		"aickpt_core_fault_ns",
		"aickpt_core_commit_write_ns",
		"aickpt_ckpt_record_write_ns",
		"aickpt_ckpt_dedup_hits_total",
		"aickpt_multilevel_epochs_drained_total",
		"aickpt_compact_compactions_total",
	} {
		if !strings.Contains(expo, family) {
			t.Errorf("/metrics during an active epoch missing family %s", family)
		}
	}
	if !strings.Contains(expo, "aickpt_core_checkpoints_total 1") {
		t.Error("/metrics does not show the in-flight checkpoint")
	}

	var snap MetricsSnapshot
	if err := json.Unmarshal(get("/snapshot"), &snap); err != nil {
		t.Fatalf("/snapshot: %v", err)
	}
	if snap.Counters["aickpt_core_checkpoints_total"] != 1 {
		t.Errorf("snapshot checkpoints = %d, want 1", snap.Counters["aickpt_core_checkpoints_total"])
	}

	var trace []struct {
		Seq   uint64 `json:"seq"`
		Stage string `json:"stage"`
	}
	if err := json.Unmarshal(get("/trace"), &trace); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(trace) == 0 {
		t.Error("/trace empty during an active epoch")
	}
	assertTraceOrdered := func(stages ...string) {
		t.Helper()
		seen := map[string]bool{}
		for i, e := range trace {
			if i > 0 && e.Seq <= trace[i-1].Seq {
				t.Fatalf("/trace out of order at index %d: seq %d after %d", i, e.Seq, trace[i-1].Seq)
			}
			seen[e.Stage] = true
		}
		for _, stage := range stages {
			if !seen[stage] {
				t.Errorf("/trace has no %q event among %d", stage, len(trace))
			}
		}
	}
	assertTraceOrdered("fault", "checkpoint")

	// A burst of scrapes while the app requests the next checkpoint: the
	// Checkpoint call may block on the frozen committer (epoch rotation),
	// but it must complete promptly once the store opens — scrapes hold no
	// lock that could extend the stall.
	done := make(chan struct{})
	go func() {
		for p := 0; p < pages; p++ {
			r.Write(p*pageSize, buf)
		}
		rt.Checkpoint()
		close(done)
	}()
	for i := 0; i < 50; i++ {
		get("/metrics")
		get("/trace")
	}
	select {
	case <-done:
		// Fine: rotation did not need the frozen epoch to finish.
	default:
	}
	store.open()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Checkpoint still blocked after the store opened — a scrape is holding the pipeline")
	}
	rt.WaitIdle()
	if err := json.Unmarshal(get("/trace"), &trace); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	assertTraceOrdered("fault", "checkpoint", "write", "seal")
}

// TestRuntimeMetricsAccessors covers the snapshot/trace accessors and the
// DisableMetrics and TraceDepth options.
func TestRuntimeMetricsAccessors(t *testing.T) {
	rt, err := New(Options{PageSize: 4096, Store: sinkStore{}})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MallocProtected(4 * 4096)
	for p := 0; p < 4; p++ {
		r.Write(p*4096, make([]byte, 4096))
	}
	rt.Checkpoint()
	rt.WaitIdle()
	snap := rt.Metrics()
	if snap.Counters["aickpt_core_checkpoints_total"] != 1 {
		t.Errorf("checkpoints = %d, want 1", snap.Counters["aickpt_core_checkpoints_total"])
	}
	if snap.Counters["aickpt_core_commit_pages_total"] == 0 {
		t.Error("no committed pages counted")
	}
	if len(rt.Trace()) == 0 {
		t.Error("trace empty after a checkpoint")
	}
	if rt.DebugAddr() != "" {
		t.Error("DebugAddr nonempty without a debug server")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	off, err := New(Options{PageSize: 4096, Store: sinkStore{}, DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	offSnap := off.Metrics()
	if len(offSnap.Counters) != 0 || off.Trace() != nil {
		t.Error("DisableMetrics still produced metrics or trace")
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}

	untraced, err := New(Options{PageSize: 4096, Store: sinkStore{}, TraceDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	ur := untraced.MallocProtected(4096)
	ur.Write(0, make([]byte, 4096))
	untraced.Checkpoint()
	untraced.WaitIdle()
	if untraced.Trace() != nil {
		t.Error("TraceDepth<0 still recorded trace events")
	}
	if untraced.Metrics().Counters["aickpt_core_checkpoints_total"] != 1 {
		t.Error("TraceDepth<0 must not disable metrics")
	}
	if err := untraced.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDebugServerLifecycle: the server answers while the runtime lives and
// the port is released by Close.
func TestDebugServerLifecycle(t *testing.T) {
	rt, err := New(Options{PageSize: 4096, Store: sinkStore{}, DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := rt.DebugAddr()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr)); err == nil {
		t.Fatal("debug server still answering after Close")
	}
}
