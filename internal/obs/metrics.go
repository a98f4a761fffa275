// Package obs is the runtime's observability core: allocation-free
// metrics (atomic counters, gauges and fixed-bucket exponential
// histograms, padded to avoid false sharing) plus a bounded ring-buffer
// trace journal of pipeline events. It is designed so every hot path of
// the checkpointing runtime — the fault handler, the committer workers,
// the repository write path, the tier drainer — can record what it does
// with a handful of uncontended atomic operations and zero heap
// allocations, keeping the paper's low-overhead argument intact while
// making contention, drain lag and tier failures observable on a live
// run.
//
// Time is injected: a Metrics carries a now-function so the same
// instrumentation works under the real clock (time.Since) and under the
// deterministic virtual-time kernel (internal/sim), and simulated runs
// produce traces in virtual time.
//
// Everything is nil-safe at the Metrics level: instrumentation sites
// guard on the *Metrics pointer, so a Manager or Repository built
// without observability pays a single predictable branch.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// cacheLinePad pads hot atomics to a cache line so independent
	// counters bumped by different workers never false-share.
	cacheLinePad = 64

	// HistBuckets is the number of exponential histogram buckets: bucket
	// i counts values v with bits.Len64(v) == i, i.e. v in
	// [2^(i-1), 2^i), with bucket 0 holding exact zeros. 40 buckets
	// cover 1ns..~9min latencies and 1B..~256GB sizes.
	HistBuckets = 40

	// MaxWorkers bounds the per-worker commit counters (worker w maps to
	// w % MaxWorkers).
	MaxWorkers = 16

	// MaxTiers bounds the per-tier drain gauges and promotion
	// histograms (lower tier level l maps to index l-1, clamped).
	MaxTiers = 8
)

// Counter is a monotonically increasing atomic counter padded to a cache
// line.
type Counter struct {
	v atomic.Uint64
	_ [cacheLinePad - 8]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depths, slots in use)
// padded to a cache line.
type Gauge struct {
	v atomic.Int64
	_ [cacheLinePad - 8]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket base-2 exponential histogram. Observe is
// lock-free and allocation-free: one bits.Len64, three atomic adds and a
// bounded compare-and-swap loop for the max. The bucket layout is fixed
// (see HistBuckets), so scrapes read a consistent-enough snapshot
// without any coordination with writers.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records v (clamped at zero).
//
//aickpt:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	i := bits.Len64(u)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(u)
	for {
		cur := h.max.Load()
		if u <= cur || h.max.CompareAndSwap(cur, u) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the histogram into an immutable value.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Le: bucketBound(i), Count: n})
		}
	}
	return s
}

// bucketBound returns the exclusive upper bound of bucket i (2^i; bucket
// 0 holds exact zeros, so its bound is 1).
func bucketBound(i int) uint64 {
	if i >= 63 {
		return 1 << 62 // clamp: the top bucket is effectively +Inf
	}
	return 1 << uint(i)
}

// HistogramBucket is one populated histogram bucket: Count observations
// with value < Le (and >= Le/2, except the zero bucket Le=1).
type HistogramBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is an immutable copy of a Histogram, JSON-friendly
// for the /snapshot endpoint and BENCH records.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Max     uint64            `json:"max"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates quantile q (in [0,1]) by linear interpolation
// within the containing bucket. The estimate is bounded by the bucket
// resolution (a factor of 2).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if next >= target {
			upper := float64(b.Le)
			lower := upper / 2
			if b.Le <= 1 {
				lower = 0
			}
			frac := 0.0
			if b.Count > 0 {
				frac = (target - cum) / float64(b.Count)
			}
			v := lower + (upper-lower)*frac
			if m := float64(s.Max); m > 0 && v > m {
				v = m
			}
			return v
		}
		cum = next
	}
	return float64(s.Max)
}

// Metrics is the runtime's metric set, grouped by subsystem. All fields
// are safe for concurrent use; the struct is meant to be created once
// per Runtime and shared by every instrumented layer. A nil *Metrics is
// the disabled state — instrumentation sites must guard on it.
type Metrics struct {
	now     func() time.Duration
	Journal *Journal // optional bounded trace journal (nil: tracing off)
	Spans   *SpanLog // optional lifecycle span log (nil: spans off)

	// Core page-manager metrics (internal/core).
	CheckpointsTotal    Counter             // Checkpoint() calls
	CheckpointBlockedNs Histogram           // app time blocked inside Checkpoint()
	FaultNs             Histogram           // fault-handler service latency
	FaultWaitNs         Histogram           // time blocked waiting on in-flight pages
	FaultsCow           Counter             // first writes absorbed by COW
	FaultsWait          Counter             // first writes that blocked
	FaultsAvoided       Counter             // first writes after the page committed
	FaultsAfter         Counter             // first writes after the whole checkpoint
	CowInUse            Gauge               // COW slots currently held (queue depth)
	CommitPages         Counter             // pages committed to the backend
	CommitBytes         Counter             // bytes committed to the backend
	CommitWriteNs       Histogram           // per-page backend write latency
	SelectorBuildNs     Histogram           // adaptive flush-order build time
	EpochsSealed        Counter             // epochs sealed by EndEpoch
	SealNs              Histogram           // EndEpoch latency
	WorkerPages         [MaxWorkers]Counter // per-worker committed pages

	// Selector prediction scorecard, observed once per sealed epoch at
	// rotation (cold relative to the per-page path).
	SelectorHitRatePm  Histogram // per-epoch flushed-before-faulted hit rate, per mille
	SelectorRankCorrPm Histogram // per-epoch footrule rank correlation, per mille (negative clamps to 0)
	WaitedQueuePeak    Histogram // per-epoch peak waited-queue depth

	// Repository metrics (internal/ckpt).
	RecordWriteNs    Histogram // WritePage latency (incl. hash+encode+stage), sampled 1-in-8
	RecordRawBytes   Counter   // raw page bytes entering the repository
	RecordCodedBytes Counter   // payload bytes after codec encoding
	DedupHits        Counter   // page writes elided by content-addressed dedup
	DedupMisses      Counter   // page writes stored physically
	EpochsSealedRepo Counter   // repository epochs sealed
	ManifestWriteNs  Histogram // manifest encode+write latency at seal

	// Multi-level hierarchy metrics (internal/multilevel).
	DrainRetries    Counter             // failed Store attempts that will be retried
	DrainFailures   Counter             // epochs that exhausted a tier's retry budget
	EpochsDrained   Counter             // epochs fully retired from the drain pipeline
	RestoreEpochs   Counter             // epochs read back during tier-aware restore
	RestorePages    Counter             // pages read back during tier-aware restore
	DrainQueueDepth [MaxTiers]Gauge     // per-lower-tier drain queue depth
	PromoteNs       [MaxTiers]Histogram // per-lower-tier promotion latency

	// Scrub / self-heal metrics (internal/multilevel scrub passes).
	ScrubSegments    Counter // chain entries verified by scrub passes
	ScrubCorrupt     Counter // damaged entries found (manifest or segment)
	ScrubRepaired    Counter // damaged entries rebuilt from a redundant tier
	ScrubUnrepaired  Counter // damaged entries no tier could rebuild
	DrainRequeues    Counter // gave-up tier copies re-enqueued by scrub
	FailedTierCopies Gauge   // tier copies currently past their retry budget

	// Compaction metrics (internal/compact).
	FoldNs         Histogram // duration of compaction passes that folded
	Compactions    Counter   // passes that committed a new base
	EpochsFolded   Counter   // epochs absorbed into bases
	ReclaimedBytes Counter   // garbage bytes collected
	CompactSkips   Counter   // passes that decided not to fold
}

// New returns a Metrics whose time source is now (e.g. env.Now of the
// runtime's sim.Env). A nil now falls back to a process-start-relative
// real clock.
func New(now func() time.Duration) *Metrics {
	if now == nil {
		start := time.Now()                                     //aickpt:walltime documented real-clock fallback for nil now
		now = func() time.Duration { return time.Since(start) } //aickpt:walltime
	}
	return &Metrics{now: now}
}

// Now returns the current time from the Metrics' time source (virtual
// under a simulation kernel). Safe on a nil receiver (returns 0).
func (m *Metrics) Now() time.Duration {
	if m == nil {
		return 0
	}
	return m.now()
}

// Trace appends one event to the journal, stamped with the Metrics' time
// source. It is a no-op on a nil receiver or without a journal, so call
// sites need no extra guard beyond the one they already hold for
// counters.
//
//aickpt:hotpath
func (m *Metrics) Trace(stage Stage, epoch uint64, page int32, tier int8, value int64) {
	if m == nil || m.Journal == nil {
		return
	}
	m.Journal.record(m.now(), stage, epoch, page, tier, value)
}

// TraceAt is Trace with a caller-supplied timestamp: hot paths that just
// read the clock for a latency observation pass that reading instead of
// paying a second clock read.
//
//aickpt:hotpath
func (m *Metrics) TraceAt(at time.Duration, stage Stage, epoch uint64, page int32, tier int8, value int64) {
	if m == nil || m.Journal == nil {
		return
	}
	m.Journal.record(at, stage, epoch, page, tier, value)
}

// TierIndex clamps a 1-based lower-tier level into the fixed per-tier
// metric arrays.
func TierIndex(level int) int {
	i := level - 1
	if i < 0 {
		i = 0
	}
	if i >= MaxTiers {
		i = MaxTiers - 1
	}
	return i
}

// WorkerIndex clamps a worker id into the fixed per-worker counters.
func WorkerIndex(w int) int {
	if w < 0 {
		w = -w
	}
	return w % MaxWorkers
}
