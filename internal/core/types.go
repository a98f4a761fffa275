// Package core implements the AI-Ckpt page manager: asynchronous
// incremental checkpointing that adapts the order in which dirty pages are
// flushed to the application's current and past memory access patterns
// (Nicolae & Cappello, HPDC'13, Algorithms 1-4).
//
// A Manager owns the protected pages of one application process. On
// Checkpoint it write-protects every page and hands the previous epoch's
// dirty set to a background committer; first writes during the epoch are
// trapped and classified (COW / WAIT / AVOIDED / AFTER), and the recorded
// classification drives the next epoch's flush order.
package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/storage"
)

// AccessType classifies the first write to a page within an epoch
// (Section 3.3 of the paper).
type AccessType uint8

const (
	// Untouched: the page has not been written since the last checkpoint.
	Untouched AccessType = iota
	// COW: the write hit a still-scheduled page and a copy-on-write slot
	// absorbed it.
	Cow
	// Wait: the write had to block until the page was committed (page in
	// flight, or no COW slots left).
	Wait
	// Avoided: the page was already committed when written, while the
	// checkpoint was still in progress — the ideal outcome.
	Avoided
	// After: the page was written after the whole checkpoint completed.
	After
)

// String implements fmt.Stringer.
func (a AccessType) String() string {
	switch a {
	case Untouched:
		return "UNTOUCHED"
	case Cow:
		return "COW"
	case Wait:
		return "WAIT"
	case Avoided:
		return "AVOIDED"
	case After:
		return "AFTER"
	default:
		return "UNKNOWN"
	}
}

// PageState tracks a page's progress through the in-flight checkpoint.
type PageState uint8

const (
	// Processed: committed already, or not part of this checkpoint.
	Processed PageState = iota
	// Scheduled: dirty and awaiting commit.
	Scheduled
	// InProgress: locked by the committer, being written to storage.
	InProgress
)

// Strategy selects the checkpointing approach compared in the paper's
// evaluation (§4.2).
type Strategy int

const (
	// Adaptive is the paper's contribution: asynchronous incremental
	// checkpointing with access-pattern-ordered flushing (Algorithm 4).
	Adaptive Strategy = iota
	// NoPattern is asynchronous incremental checkpointing that flushes in
	// ascending page order, ignoring the access pattern.
	NoPattern
	// Sync is NoPattern with the application blocked inside Checkpoint
	// until the committer has sealed the epoch.
	Sync
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Adaptive:
		return "our-approach"
	case NoPattern:
		return "async-no-pattern"
	case Sync:
		return "sync"
	default:
		return "unknown"
	}
}

// Config parameterizes a Manager.
type Config struct {
	// Env supplies time and synchronization; sim.NewRealEnv() for real
	// applications, a *sim.Kernel for simulated experiments.
	Env sim.Env
	// Space holds the protected regions the manager owns.
	Space *pagemem.Space
	// Store receives committed pages.
	Store storage.Backend
	// Strategy chooses the checkpointing approach.
	Strategy Strategy
	// CowSlots bounds the number of concurrent copy-on-write copies (the
	// COW buffer size divided by the page size). Zero disables COW.
	CowSlots int
	// CommitWorkers is the number of concurrent committer workers in the
	// parallel commit pipeline. Workers pull pages in the epoch's flush
	// order under the manager lock and perform the storage writes
	// off-lock, concurrently; an epoch-end barrier orders every write
	// before the seal. 0 defaults to 1 — the serial committer, which keeps
	// virtual-time simulations bit-for-bit reproducible with earlier
	// revisions. Values > 1 require a Store that tolerates concurrent
	// WritePage calls for the same epoch (see storage.Backend). While no
	// application thread is parked in the manager, at most
	// max(1, Env.Cores()−1) of them pull pages; while one is, all do.
	CommitWorkers int
	// CowCopyCost models the time to copy one page into the COW buffer
	// (virtual-time experiments only; leave zero in real mode, where the
	// actual memcpy is the cost).
	CowCopyCost time.Duration
	// FaultCost models the fixed overhead of trapping one first write
	// (mprotect fault + handler); virtual-time experiments only.
	FaultCost time.Duration
	// FirstEpoch offsets checkpoint numbering; a restarted process sets
	// it to the last sealed epoch so new checkpoints extend the existing
	// repository instead of overwriting it.
	FirstEpoch uint64
	// Metrics receives per-stage observability: fault classification
	// counters, blocked-time and write-latency histograms, and pipeline
	// trace events. Nil disables instrumentation; every hot-path site
	// guards on it with a single branch and records with atomics only,
	// so enabling it costs no allocations.
	Metrics *obs.Metrics
	// Name identifies the manager's processes in diagnostics.
	Name string

	// Ablation switches (benchmarking the contribution of each priority
	// tier of Algorithm 4; production code leaves them false).

	// NoWaitedHint disables the waited-page priority: a blocked writer
	// waits until the background order reaches its page.
	NoWaitedHint bool
	// NoLiveCowPriority disables the preference for committing
	// current-epoch COW pages early (slot recycling).
	NoLiveCowPriority bool
}

// EpochStats aggregates one checkpoint's behavior: how its flush proceeded
// and how the application's first writes were classified until the next
// checkpoint request. These are the quantities behind Figures 2(b), 2(c)
// and the checkpointing-time curves.
type EpochStats struct {
	// Epoch is the checkpoint sequence number (1-based).
	Epoch uint64
	// PagesCommitted is the size of the dirty set this checkpoint wrote.
	PagesCommitted int
	// BytesCommitted is PagesCommitted times the page size.
	BytesCommitted int64
	// Waits/Cows/Avoided/After count the access types triggered by first
	// writes between this checkpoint request and the next.
	Waits   int
	Cows    int
	Avoided int
	After   int
	// WaitTime is the total application time spent blocked on page waits
	// during the epoch.
	WaitTime time.Duration
	// BlockedInCheckpoint is how long the application was blocked inside
	// the Checkpoint call itself (the full flush for Sync; the wait for
	// the previous checkpoint to finish for the asynchronous strategies).
	BlockedInCheckpoint time.Duration
	// Duration is the checkpointing time metric of the paper: from the
	// Checkpoint call until the last dirty page reached storage.
	Duration time.Duration
	// Start is the virtual time of the checkpoint request.
	Start time.Duration

	// Selector prediction scorecard, accumulated at the commit/fault
	// sites (see obs.Scorecard for the derived wire form).

	// FaultArrivals is the number of first-write faults taken during the
	// epoch — the length of the actual access order the selector tried
	// to predict.
	FaultArrivals int
	// RankPairs counts pages both flushed and faulted this epoch;
	// FootruleSum accumulates |flushRank - faultIndex| over them — the
	// Spearman footrule between predicted flush order and actual fault
	// arrival order.
	RankPairs   int
	FootruleSum int64
	// MaxWaitedDepth is the peak depth of the waited-page queue during
	// the epoch (how many first writes were stacked up blocked at the
	// worst moment).
	MaxWaitedDepth int
	// FaultHeat and CowHeat split fault locations (all faults /
	// COW-absorbed only) over obs.HeatBuckets equal regions of the page
	// space.
	FaultHeat [obs.HeatBuckets]uint32
	CowHeat   [obs.HeatBuckets]uint32
}

// HitRate is the flushed-before-faulted hit rate of the epoch:
// AVOIDED / (WAIT + COW + AVOIDED), 0 when no overlapping access
// happened.
func (e EpochStats) HitRate() float64 {
	return obs.ScoreHitRate(e.Waits, e.Cows, e.Avoided)
}

// RankCorrelation is the footrule rank correlation between the
// selector's flush order and the actual fault arrival order (1 =
// identical orders, ~0 = random, negative = anti-correlated).
func (e EpochStats) RankCorrelation() float64 {
	return obs.ScoreRankCorrelation(e.FootruleSum, e.RankPairs, e.PagesCommitted, e.FaultArrivals)
}

// Scorecard renders the epoch's selector prediction scorecard in the
// observability wire form. Cold path: allocates the heatmap slices.
func (e EpochStats) Scorecard() obs.Scorecard {
	return obs.Scorecard{
		Epoch:           e.Epoch,
		PagesFlushed:    e.PagesCommitted,
		FaultArrivals:   e.FaultArrivals,
		Waits:           e.Waits,
		Cows:            e.Cows,
		Avoided:         e.Avoided,
		After:           e.After,
		MaxWaitedDepth:  e.MaxWaitedDepth,
		RankPairs:       e.RankPairs,
		FootruleSum:     e.FootruleSum,
		HitRate:         e.HitRate(),
		RankCorrelation: e.RankCorrelation(),
		FaultHeat:       append([]uint32(nil), e.FaultHeat[:]...),
		CowHeat:         append([]uint32(nil), e.CowHeat[:]...),
	}
}
