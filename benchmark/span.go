package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// layer names a module of the runtime on the real-time path. The order is
// call depth: when several spans are active at one instant, the time
// belongs to the deepest layer among them.
type layer uint8

const (
	lyApp layer = iota
	lyPagemem
	lyCore
	lyCompact
	lyMultilevel
	lyCkpt
	lyFS
	numLayers
)

var layerNames = [numLayers]string{"app", "pagemem", "core", "compact", "multilevel", "ckpt", "fs"}

// spanKind is the boundary call a span was recorded around.
type spanKind uint8

const (
	spCheckpoint spanKind = iota // application → core
	spWaitIdle
	spWaitDrained // application → multilevel
	spRegionWrite // application → pagemem, one write in 64
	spRestore     // application → ckpt or multilevel
	spLoadImage   // application copying the image into a fresh region
	spCompact     // application → compact.RunOnce
	spWritePage   // core → Store
	spEndEpoch
	spFSCreate // ckpt → FS
	spFSWrite
	spFSPublish // Close of a writer: fsync + rename + directory fsync
	spFSOpen
	spFSRead
	spFSCloseRead
	spFSList
	spFSRemove
	spTierStore // multilevel → Tier
	spTierLoad
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"Checkpoint", "WaitIdle", "WaitDrained", "Region.Write", "Restore", "LoadImage", "compact.RunOnce",
	"Store.WritePage", "Store.EndEpoch",
	"FS.Create", "FS.Write", "FS.Close(publish)", "FS.Open", "FS.Read", "FS.Close(read)", "FS.List", "FS.Remove",
	"Tier.Store", "Tier.Load",
}

// span is one recorded call. Times are nanoseconds since the tracer
// started. arg is the byte count of a read or write, and 1 on a failed
// Tier.Store.
type span struct {
	start, end int64
	epoch      uint32
	parent     int32 // index of the span that caused this one, -1 for none
	arg        int32
	kind       spanKind
	layer      layer
	tag        uint8 // index into tracer.tags: the FS view or tier
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span in memory until the run ends. The zero epoch
// means "not tied to an epoch".
type tracer struct {
	t0 time.Time
	// op is the restore or compaction the application is inside, -1 when
	// it is in neither. Both run with commits and drains at rest.
	op atomic.Int32

	mu     sync.Mutex
	spans  []span           //aickpt:guardedby mu
	commit map[uint32]int32 //aickpt:guardedby mu (epoch → its Checkpoint span)
	tags   []string
}

func newTracer(tags ...string) *tracer {
	t := &tracer{t0: time.Now(), commit: map[uint32]int32{}, tags: tags}
	t.op.Store(-1)
	return t
}

// operation hangs every parentByEpoch span under id until release runs.
func (t *tracer) operation(id int32) (release func()) {
	t.op.Store(id)
	return func() { t.op.Store(-1) }
}

// now is tracer time; a nil tracer's clock stays at 0.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) tag(name string) uint8 {
	for i, n := range t.tags {
		if n == name {
			return uint8(i)
		}
	}
	panic("benchmark: unknown trace tag " + name)
}

// parentByEpoch asks begin to hang a span under the operation in progress
// or, outside one, under the Checkpoint span of its epoch: commits, drains
// and read-backs run on other goroutines than the call that caused them,
// and the epoch is what ties them to it.
const parentByEpoch = -2

// begin opens a span now and returns its index; finish closes it. Both are
// no-ops on a nil tracer, so the untraced pass runs the same application
// code.
func (t *tracer) begin(kind spanKind, ly layer, tag uint8, epoch uint32, parent int32) int32 {
	if t == nil {
		return -1
	}
	s := span{start: t.now(), epoch: epoch, parent: parent, kind: kind, layer: ly, tag: tag}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(s)
	id := int32(len(t.spans) - 1)
	if kind == spCheckpoint {
		t.commit[epoch] = id
	}
	return id
}

func (t *tracer) finish(id, arg int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.spans[id].arg = arg
	t.mu.Unlock()
}

func (t *tracer) appendLocked(s span) {
	if s.parent == parentByEpoch {
		s.parent = t.op.Load()
		if id, ok := t.commit[s.epoch]; ok && s.parent < 0 {
			s.parent = id
		}
	}
	t.spans = append(t.spans, s)
}

// addBatch records the finished spans one file handle buffered privately.
func (t *tracer) addBatch(batch []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range batch {
		t.appendLocked(s)
	}
}

// snapshot returns the spans sorted by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// selfTimes splits the window [lo, hi) between layers: each instant goes to
// the deepest layer with a span active that keep accepts, and to root when
// none is. The parts sum to hi-lo exactly, whatever the nesting or the
// number of goroutines, so parallel commit workers are not counted twice.
// This is "span minus the part its children cover", taken over a whole
// window at once. spans must be sorted by start; only spans that start
// inside the window count, which loses nothing here because every window
// opens with the call that causes the rest.
func selfTimes(spans []span, lo, hi int64, root layer, keep func(span) bool) [numLayers]int64 {
	type edge struct {
		at    int64
		layer layer
		delta int
	}
	var edges []edge
	first := sort.Search(len(spans), func(i int) bool { return spans[i].start >= lo })
	for _, s := range spans[first:] {
		if s.start >= hi {
			break
		}
		if keep(s) {
			edges = append(edges, edge{s.start, s.layer, 1}, edge{min(s.end, hi), s.layer, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var self [numLayers]int64
	var active [numLayers]int
	at := lo
	for _, e := range edges {
		owner := root
		for l := int(numLayers) - 1; l >= 0; l-- {
			if active[l] > 0 {
				owner = layer(l)
				break
			}
		}
		self[owner] += e.at - at
		at = e.at
		active[e.layer] += e.delta
	}
	self[root] += hi - at
	return self
}

// epochOfFile reads the epoch a repository file belongs to from its name
// (epoch-N.pages, epoch-N.json, tiers-N.json, base-FROM-TO.*: the last
// number wins, so a base counts for the epoch it ends at).
func epochOfFile(name string) uint32 {
	stem, _, _ := strings.Cut(name, ".")
	parts := strings.Split(stem, "-")
	n, err := strconv.ParseUint(parts[len(parts)-1], 10, 32)
	if err != nil {
		return 0
	}
	return uint32(n)
}

// traceSpanJSON is the written form of a span. Calls made tens of
// thousands of times per epoch (page writes, file reads and writes) are
// folded into one entry per (name, tag, epoch, parent) with a count and the
// summed duration; everything else is written call by call.
type traceSpanJSON struct {
	ID      int32  `json:"id"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Tag     string `json:"tag,omitempty"`
	Epoch   uint32 `json:"epoch,omitempty"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   int    `json:"calls,omitempty"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

func foldedKind(k spanKind) bool {
	return k == spWritePage || k == spFSWrite || k == spFSRead || k == spRegionWrite
}

// writeJSON writes the trace to path.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	type foldKey struct {
		kind   spanKind
		tag    uint8
		epoch  uint32
		parent int32
	}
	folds := map[foldKey]int{}
	var out []traceSpanJSON
	for id, s := range spans {
		j := traceSpanJSON{
			ID: int32(id), Name: spanKindNames[s.kind], Layer: layerNames[s.layer], Tag: t.tags[s.tag],
			Epoch: s.epoch, Parent: s.parent, StartNs: s.start, EndNs: s.end,
		}
		if !foldedKind(s.kind) {
			if s.kind != spTierStore {
				j.Bytes = int64(s.arg)
			}
			out = append(out, j)
			continue
		}
		key := foldKey{s.kind, s.tag, s.epoch, s.parent}
		i, ok := folds[key]
		if !ok {
			i = len(out)
			folds[key] = i
			out = append(out, j)
			out[i].EndNs = s.start // grown below
		}
		f := &out[i]
		f.Calls++
		f.BusyNs += s.dur()
		f.Bytes += int64(s.arg)
		f.StartNs = min(f.StartNs, s.start)
		f.EndNs = max(f.EndNs, s.end)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": out}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
