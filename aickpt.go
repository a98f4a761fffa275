// Package aickpt is an adaptive asynchronous incremental checkpointing
// runtime for iterative applications, reproducing "AI-Ckpt: Leveraging
// Memory Access Patterns for Adaptive Asynchronous Incremental
// Checkpointing" (Nicolae & Cappello, HPDC 2013).
//
// Applications allocate protected memory through a Runtime, mutate it
// through Region accessors, and call Checkpoint at iteration boundaries.
// Checkpointing is incremental (only pages written since the previous
// checkpoint are saved) and asynchronous (a background committer flushes
// pages while the application keeps running). First writes to
// not-yet-flushed pages are absorbed by a bounded copy-on-write buffer, and
// the order in which pages are flushed adapts to the application's current
// and previous-epoch access pattern, minimizing the time the application
// spends blocked on in-flight pages.
//
// A minimal session:
//
//	rt, err := aickpt.New(aickpt.Options{Dir: "ckpt-data"})
//	if err != nil { ... }
//	defer rt.Close()
//	region := rt.MallocProtected(64 << 20)
//	for iter := 0; iter < n; iter++ {
//		step(region)
//		if iter%10 == 9 {
//			rt.Checkpoint()
//		}
//	}
//
// After a crash, Restore folds the sealed checkpoint chain back into a
// memory image (see Image and Runtime.LoadImage).
package aickpt

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/ckpt"
	"repro/internal/compact"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pagemem"
	"repro/internal/sim"
)

// Strategy selects how checkpoints are written; String names it as the
// paper's evaluation does.
type Strategy = core.Strategy

const (
	// Adaptive is asynchronous incremental checkpointing with
	// access-pattern-adapted flush ordering — the paper's contribution
	// and the default.
	Adaptive = core.Adaptive
	// NoPattern is asynchronous incremental checkpointing that flushes
	// dirty pages in ascending address order.
	NoPattern = core.NoPattern
	// Sync is NoPattern with Checkpoint blocking until all dirty pages
	// are stored.
	Sync = core.Sync
)

// Store receives committed pages; implement it to plug in custom storage
// backends (the paper's page manager is modular in the same way: POSIX file
// systems, parallel file systems, cloud repositories). Epochs are sealed by
// EndEpoch after their last page.
//
// With Options.CommitWorkers > 1 the commit pipeline calls WritePage
// concurrently for pages of the same epoch, so implementations must
// synchronize shared state. Each page is written at most once per epoch,
// EndEpoch is never concurrent with that epoch's WritePage calls, and the
// data slice is only valid until the call returns — the runtime recycles
// copy-on-write page buffers into a pool the moment WritePage returns, so
// a Store that retains data past its return will observe the buffer being
// overwritten by a later fault. Copy what you keep. Custom Store backends
// default to the serial committer; set CommitWorkers explicitly once the
// backend honors this contract.
type Store interface {
	WritePage(epoch uint64, page int, data []byte, size int) error
	EndEpoch(epoch uint64) error
}

// Options configures a Runtime.
type Options struct {
	// PageSize is the tracking granularity in bytes (default 4096, the
	// operating-system page size used throughout the paper).
	PageSize int
	// CowBuffer bounds the copy-on-write buffer in bytes (default 16 MB,
	// the paper's synthetic-benchmark setting). The number of slots is
	// CowBuffer / PageSize. Zero disables copy-on-write; writes to
	// not-yet-flushed pages then always wait.
	CowBuffer int64
	// DisableCow distinguishes "CowBuffer deliberately zero" from
	// "CowBuffer left at its default".
	DisableCow bool
	// CommitWorkers sizes the commit pipeline under every strategy: the
	// number of committer workers that each pull the next page in the
	// flush order and perform its copy, hash, compression and storage
	// write in parallel with their peers, so the flush scales with the
	// backend's aggregate bandwidth. 0 derives a default from GOMAXPROCS
	// (capped at 8) — except with a custom Store, which defaults to 1
	// until the backend opts into the concurrency contract (see Store). 1
	// selects the serial committer of the original design. While the
	// application runs, at most GOMAXPROCS−1 of the workers (at least one)
	// pull pages, so the application keeps a core; while it waits inside
	// the runtime (WaitIdle, a Sync Checkpoint, a write to a page in
	// flight), all of them do.
	CommitWorkers int
	// Strategy selects the checkpointing approach (default Adaptive).
	Strategy Strategy
	// Dir is the checkpoint repository directory. Exactly one of Dir,
	// Store and Tiers must be set.
	Dir string
	// Store overrides the repository with a custom backend.
	Store Store
	// Tiers builds a multi-level checkpoint hierarchy (fastest tier
	// first): checkpoints are acknowledged once sealed on the first
	// (local) tier and drained asynchronously to the rest. The resulting
	// hierarchy is reachable through Runtime.Hierarchy for tier-aware
	// restore and inspection.
	Tiers []TierSpec
	// Drain bounds the hierarchy's background promotion pipeline (only
	// meaningful with Tiers); the zero value selects defaults.
	Drain DrainPolicy
	// Compression selects page compression for the durable repository
	// (only meaningful with Dir): CompressionNone, CompressionZero
	// (zero-page elimination) or CompressionFlate (DEFLATE). Restore
	// decodes transparently.
	Compression Compression
	// Compaction bounds the incremental chain: when its thresholds are
	// exceeded, a background compactor folds old sealed epochs into a
	// consolidated base segment and reclaims their storage, so restore
	// time and disk footprint stay flat as the run grows. The zero value
	// disables background compaction (Runtime.CompactNow still works).
	// Meaningful with Dir and Tiers; rejected with a custom Store.
	Compaction CompactionPolicy
	// DisableDedup turns off content-addressed dedup in the repository.
	// Dedup is on by default: a committed page whose content is
	// bit-identical to the newest chain entry is recorded as a cheap
	// manifest reference instead of a segment record.
	DisableDedup bool
	// DebugAddr, when non-empty, starts an HTTP debug server on the given
	// address (e.g. "127.0.0.1:6060", or ":0" for an ephemeral port; the
	// bound address is available through Runtime.DebugAddr). It serves the
	// Prometheus text exposition at /metrics, the pipeline trace journal
	// at /trace, the machine-readable metric snapshot at /snapshot, the
	// epoch flight recorder (per-epoch selector scorecards + lifecycle
	// span trees with critical-path breakdowns) at /epochs, and the
	// standard pprof handlers under /debug/pprof/. Scrapes read the shared
	// metric set with atomic loads only and never block the checkpoint
	// pipeline.
	DebugAddr string
	// DisableMetrics turns the observability layer off entirely:
	// Runtime.Metrics returns an empty snapshot, Runtime.Trace returns
	// nil, and the instrumented hot paths skip their (single-branch,
	// allocation-free) recording. Metrics are on by default; the measured
	// commit-throughput cost is under 2%.
	DisableMetrics bool
	// TraceDepth sizes the bounded pipeline trace journal in events
	// (rounded up to a power of two). The journal is a flight recorder:
	// when it wraps, the oldest events are overwritten. 0 selects the
	// default depth (4096); negative disables tracing while keeping
	// metrics on.
	TraceDepth int
	// SpanDepth sizes the bounded epoch lifecycle span log (rounded up
	// to a power of two). Spans are recorded once per epoch and stage
	// (commit, seal, per-tier drain-wait and promote, compact, restore),
	// so the default depth (1024) covers hundreds of epochs. 0 selects
	// the default; negative disables span recording while keeping
	// metrics on (Runtime.Epochs then reports scorecards without span
	// trees).
	SpanDepth int
}

// CompactionPolicy decides when the checkpoint chain is compacted.
type CompactionPolicy struct {
	// MaxChainDepth triggers compaction when the live chain (consolidated
	// base + epochs after it) grows beyond this many segments; restore
	// then reads at most MaxChainDepth segments. <= 0 disables the depth
	// trigger.
	MaxChainDepth int
	// MaxAmplification triggers compaction when on-disk bytes exceed this
	// multiple of the live image size. <= 0 disables.
	MaxAmplification float64
	// KeepRecent epochs are never folded, so the base is rewritten every
	// ~KeepRecent checkpoints rather than on every seal. Defaults to
	// max(1, MaxChainDepth/2).
	KeepRecent int
}

func (p CompactionPolicy) enabled() bool {
	return p.MaxChainDepth > 0 || p.MaxAmplification > 0
}

func (p CompactionPolicy) internal() compact.Policy {
	return compact.Policy{
		MaxDepth:         p.MaxChainDepth,
		MaxAmplification: p.MaxAmplification,
		KeepRecent:       p.KeepRecent,
	}
}

// Compression names a page codec for the durable repository.
type Compression = compress.Codec

const (
	// CompressionNone stores pages verbatim.
	CompressionNone = compress.None
	// CompressionZero elides all-zero pages (one byte each).
	CompressionZero = compress.Zero
	// CompressionFlate applies DEFLATE with zero-page elision, falling
	// back to verbatim storage for incompressible pages.
	CompressionFlate = compress.Flate
)

// Runtime is the per-process checkpointing runtime: it owns the protected
// address space, the page manager and the storage backend.
type Runtime struct {
	opts      Options
	space     *pagemem.Space
	manager   *core.Manager
	repo      *ckpt.Repository   // nil when a custom Store is used
	fs        ckpt.FS            // nil when a custom Store is used
	hier      *Hierarchy         // non-nil when Options.Tiers built a hierarchy
	compactor *compact.Compactor // non-nil when Options.Compaction is enabled
	// compactCfg is the one-shot compaction configuration used by
	// CompactNow when no background compactor runs; nil with a custom
	// Store (no repository to compact).
	compactCfg *compact.Config
	metrics    *obs.Metrics // nil when Options.DisableMetrics is set
	debug      *obs.Server  // non-nil when Options.DebugAddr started a server
	closed     bool
}

// New creates a runtime. With Options.Dir set, checkpoints are written to a
// durable repository in that directory; with Options.Store set, pages go to
// the custom backend.
func New(opts Options) (*Runtime, error) {
	if opts.PageSize == 0 {
		opts.PageSize = 4096
	}
	if opts.PageSize < 16 {
		return nil, fmt.Errorf("aickpt: page size %d too small", opts.PageSize)
	}
	if opts.Strategy < Adaptive || opts.Strategy > Sync {
		return nil, fmt.Errorf("aickpt: unknown strategy %d", opts.Strategy)
	}
	if opts.Compression > CompressionFlate {
		return nil, fmt.Errorf("aickpt: unknown compression %d", opts.Compression)
	}
	if opts.CowBuffer == 0 && !opts.DisableCow {
		opts.CowBuffer = 16 << 20
	}
	if opts.CowBuffer < 0 {
		return nil, fmt.Errorf("aickpt: negative CowBuffer")
	}
	if opts.CommitWorkers < 0 {
		return nil, fmt.Errorf("aickpt: negative CommitWorkers")
	}
	if opts.CommitWorkers == 0 {
		if opts.Store != nil {
			// A user-supplied backend may predate the concurrency
			// contract; stay serial unless explicitly opted in.
			opts.CommitWorkers = 1
		} else {
			opts.CommitWorkers = runtime.GOMAXPROCS(0)
			if opts.CommitWorkers > 8 {
				opts.CommitWorkers = 8
			}
		}
	}
	set := 0
	for _, on := range []bool{opts.Dir != "", opts.Store != nil, len(opts.Tiers) > 0} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("aickpt: exactly one of Options.Dir, Options.Store and Options.Tiers must be set")
	}
	if opts.Store != nil && opts.Compaction.enabled() {
		return nil, errors.New("aickpt: Options.Compaction needs a repository (Dir or Tiers), not a custom Store")
	}
	rt := &Runtime{opts: opts, space: pagemem.NewSpace(opts.PageSize)}
	env := sim.NewRealEnv()
	if !opts.DisableMetrics {
		rt.metrics = obs.New(env.Now)
		if opts.TraceDepth >= 0 {
			depth := opts.TraceDepth
			if depth == 0 {
				depth = obs.DefaultJournalDepth
			}
			rt.metrics.Journal = obs.NewJournal(depth)
		}
		if opts.SpanDepth >= 0 {
			depth := opts.SpanDepth
			if depth == 0 {
				depth = obs.DefaultSpanDepth
			}
			rt.metrics.Spans = obs.NewSpanLog(depth)
		}
	}
	var backend Store
	var firstEpoch uint64
	if len(opts.Tiers) > 0 {
		h, err := newHierarchy(opts.PageSize, opts.Tiers, opts.Drain, rt.metrics)
		if err != nil {
			return nil, err
		}
		rt.hier = h
		backend = h
		h.inner.Local().SetDedup(!opts.DisableDedup)
		// Compaction works on the fast local tier; lower tiers keep their
		// per-epoch copies. Only epochs that have settled through the
		// drain pipeline may fold, so a base never strands content that
		// reached no lower tier; superseding is reflected in the tier
		// manifests.
		rt.compactCfg = &compact.Config{
			FS:          h.inner.Local().FS(),
			PageSize:    opts.PageSize,
			Policy:      opts.Compaction.internal(),
			CanFold:     h.inner.Settled,
			OnCompacted: func(base ckpt.Manifest, _ []uint64) { h.inner.MarkSuperseded(base) },
			Metrics:     rt.metrics,
		}
		// As with Dir, a restarted process extends the chain already on
		// the (durable, directory-backed) local tier. The hierarchy has
		// re-queued those epochs for draining, so lower tiers regain a
		// copy of the whole chain.
		if last, ok := h.inner.LastEpoch(); ok {
			firstEpoch = last
		}
	} else if opts.Store != nil {
		backend = opts.Store
		// A custom backend that understands the internal metric set (e.g.
		// a ckpt.Repository plugged in directly) opts into repository-side
		// instrumentation.
		if s, ok := backend.(interface{ SetMetrics(*obs.Metrics) }); ok && rt.metrics != nil {
			s.SetMetrics(rt.metrics)
		}
	} else {
		fs, err := ckpt.NewOSFS(opts.Dir)
		if err != nil {
			return nil, err
		}
		rt.fs = fs
		rt.repo = ckpt.NewRepository(fs, opts.PageSize)
		rt.repo.SetCodec(opts.Compression)
		rt.repo.SetDedup(!opts.DisableDedup)
		rt.repo.SetMetrics(rt.metrics)
		backend = rt.repo
		rt.compactCfg = &compact.Config{
			FS:       fs,
			PageSize: opts.PageSize,
			Codec:    uint8(opts.Compression),
			Policy:   opts.Compaction.internal(),
			Metrics:  rt.metrics,
		}
		// A restarted process extends the existing chain rather than
		// overwriting it (LastSealedEpoch sees through compacted bases, so
		// numbering continues even when every epoch file was folded away).
		if last, ok, err := ckpt.LastSealedEpoch(fs); err != nil {
			return nil, err
		} else if ok {
			firstEpoch = last
		}
	}
	if opts.Compaction.enabled() {
		rt.compactor = compact.NewCompactor(env, *rt.compactCfg)
		if rt.hier != nil {
			// Epochs become foldable when they settle through the drain
			// pipeline, which can be long after the seal that kicked the
			// compactor last.
			rt.hier.inner.SetOnSettled(func(uint64) { rt.compactor.Kick() })
		}
	}
	rt.manager = core.NewManager(core.Config{
		Env:           env,
		Space:         rt.space,
		Store:         storeAdapter{s: backend, compactor: rt.compactor},
		Strategy:      opts.Strategy,
		CowSlots:      int(opts.CowBuffer / int64(opts.PageSize)),
		CommitWorkers: opts.CommitWorkers,
		FirstEpoch:    firstEpoch,
		Name:          "aickpt",
		Metrics:       rt.metrics,
	})
	if opts.DebugAddr != "" {
		// POST /scrub triggers an on-demand integrity scrub; custom Stores
		// have nothing to scrub, so the endpoint reports unsupported there.
		var scrub obs.ScrubFunc
		if rt.hier != nil || rt.fs != nil {
			scrub = func() (any, error) { return rt.Scrub() }
		}
		srv, err := obs.StartServer(opts.DebugAddr, rt.metrics, rt.Epochs, scrub)
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("aickpt: debug server: %w", err)
		}
		rt.debug = srv
	}
	return rt, nil
}

// storeAdapter bridges the public Store interface to the internal backend
// interface (they are structurally identical) and kicks the background
// compactor after every seal.
type storeAdapter struct {
	s         Store
	compactor *compact.Compactor
}

func (a storeAdapter) WritePage(epoch uint64, page int, data []byte, size int) error {
	return a.s.WritePage(epoch, page, data, size)
}

func (a storeAdapter) EndEpoch(epoch uint64) error {
	if err := a.s.EndEpoch(epoch); err != nil {
		return err
	}
	if a.compactor != nil {
		a.compactor.Kick()
	}
	return nil
}

// PageSize returns the tracking granularity in bytes.
func (rt *Runtime) PageSize() int { return rt.opts.PageSize }

// MallocProtected allocates n bytes of checkpointed memory (the paper's
// malloc_protected). The region participates in every subsequent
// checkpoint.
func (rt *Runtime) MallocProtected(n int) *Region {
	return &Region{rt: rt, inner: rt.space.Alloc(n, false)}
}

// Free releases a protected region (free_protected), coordinating with any
// in-flight checkpoint.
func (rt *Runtime) Free(r *Region) {
	rt.manager.Free(r.inner)
}

// TransparentAllocator returns an allocator whose every allocation is
// protected, mirroring the paper's preloaded-malloc transparent mode for
// applications that cannot name their checkpointable state explicitly.
func (rt *Runtime) TransparentAllocator() *Allocator { return &Allocator{rt: rt} }

// Checkpoint requests a checkpoint (the CHECKPOINT primitive). Under the
// asynchronous strategies it returns as soon as the epoch is rotated; under
// Sync it blocks until all dirty pages are stored. If a previous checkpoint
// is still in flight, Checkpoint first waits for it to complete.
func (rt *Runtime) Checkpoint() { rt.manager.Checkpoint() }

// WaitIdle blocks until no checkpoint is in flight. Call it before reading
// checkpoint statistics or shutting down cleanly mid-epoch.
func (rt *Runtime) WaitIdle() { rt.manager.WaitIdle() }

// Err returns the first storage error encountered by the committer.
func (rt *Runtime) Err() error { return rt.manager.Err() }

// Hierarchy returns the multi-level checkpoint hierarchy built from
// Options.Tiers, or nil when the runtime uses a flat backend. Use it for
// tier-aware restore, drain synchronization, tier manifests and failure
// injection.
func (rt *Runtime) Hierarchy() *Hierarchy { return rt.hier }

// Metrics returns a point-in-time snapshot of every runtime metric —
// counters, gauges and latency/size histograms across the page manager,
// the repository, the tier drainer and the compactor, keyed by Prometheus
// family name. Taking a snapshot reads each metric with one atomic load
// and never blocks the checkpoint pipeline. With Options.DisableMetrics
// the snapshot is empty.
func (rt *Runtime) Metrics() MetricsSnapshot { return rt.metrics.TakeSnapshot() }

// Trace returns the pipeline trace journal's retained events in recording
// order: the newest TraceDepth events of the fault → COW → select →
// compress → write → seal → drain → promote → compact lifecycle. Nil when
// metrics or tracing are disabled.
func (rt *Runtime) Trace() []TraceEvent {
	if rt.metrics == nil || rt.metrics.Journal == nil {
		return nil
	}
	return rt.metrics.Journal.Snapshot()
}

// DebugAddr returns the debug HTTP server's bound address (useful with
// Options.DebugAddr ":0"), or "" when no debug server runs.
func (rt *Runtime) DebugAddr() string {
	if rt.debug == nil {
		return ""
	}
	return rt.debug.Addr()
}

// Spans returns the epoch lifecycle span log's retained spans in
// recording order: per-epoch commit, seal, per-tier drain-wait and
// promote, compact and restore intervals, stamped with the runtime's
// time source. Nil when metrics or span recording are disabled.
func (rt *Runtime) Spans() []Span {
	if rt.metrics == nil || rt.metrics.Spans == nil {
		return nil
	}
	return rt.metrics.Spans.Snapshot()
}

// Scorecards returns the selector prediction scorecard of every epoch:
// how well the adaptive flush order predicted the application's actual
// fault arrival order (hit rate, footrule rank correlation,
// waited-queue pressure, per-region fault/COW heatmaps). The last entry
// is the live epoch, whose fault window is still open.
func (rt *Runtime) Scorecards() []Scorecard { return rt.manager.Scorecards() }

// Epochs assembles the epoch flight recorder: one record per epoch
// merging its selector prediction scorecard with its lifecycle span
// tree and critical-path breakdown (which stage bounded the epoch's
// latency). This is what the debug server's /epochs endpoint serves as
// JSON. Assembly is a cold path and never blocks the pipeline (the
// span snapshot is lock-free).
func (rt *Runtime) Epochs() []EpochRecord {
	var spans []Span
	if rt.metrics != nil && rt.metrics.Spans != nil {
		spans = rt.metrics.Spans.Snapshot()
	}
	return obs.BuildEpochRecords(rt.manager.Scorecards(), spans)
}

// CompactNow runs one forced compaction pass synchronously: every foldable
// epoch is consolidated into a base segment regardless of the policy
// thresholds, and the superseded files are garbage-collected. It works with
// or without a background compactor configured (with Tiers, only epochs
// already drained to every lower tier fold). Call it at natural barriers —
// before a planned shutdown, or when reclaiming disk space matters more
// than the fold cost.
func (rt *Runtime) CompactNow() (CompactionResult, error) {
	if rt.compactor != nil {
		return rt.compactor.CompactNow()
	}
	if rt.compactCfg == nil {
		return CompactionResult{}, errors.New("aickpt: compaction needs a repository (Dir or Tiers), not a custom Store")
	}
	return compact.RunOnce(*rt.compactCfg, true)
}

// CompactionResult describes one compaction pass: whether a new base was
// committed and over which epoch range, how many epochs it folded, the
// size of the new base segment, the storage garbage-collected, and the
// number of segments a restore reads afterwards.
type CompactionResult = compact.Result

// StorageStats reports the repository-side counters of the runtime. The
// dedup counters: PagesStored/BytesStored count physical segment records
// written, PagesDeduped/BytesDeduped the page commits elided because the
// content matched the newest chain entry. The background compactor's
// totals: Compactions counts committed bases and EpochsFolded the epochs
// they absorbed, BytesWritten/BytesReclaimed are base bytes written and
// garbage bytes collected, and LiveSegments is the chain length after the
// last pass (0 until one runs). With a custom Store all counters are zero.
type StorageStats struct {
	ckpt.DedupStats
	compact.Stats
}

// StorageStats returns the runtime's dedup and compaction counters.
func (rt *Runtime) StorageStats() StorageStats {
	var out StorageStats
	switch {
	case rt.repo != nil:
		out.DedupStats = rt.repo.DedupStats()
	case rt.hier != nil:
		out.DedupStats = rt.hier.inner.Local().DedupStats()
	}
	if rt.compactor != nil {
		out.Stats = rt.compactor.Stats()
	}
	return out
}

// Close drains in-flight work (including background tier draining when a
// hierarchy is configured), stops the committer and the background
// compactor, and releases the runtime. It returns the first storage error,
// if any.
func (rt *Runtime) Close() error {
	if rt.closed {
		return rt.manager.Err()
	}
	rt.closed = true
	if rt.debug != nil {
		// The final state stays scrapeable until everything has drained.
		defer rt.debug.Close()
	}
	rt.manager.Close()
	if rt.compactor != nil {
		rt.compactor.Close()
	}
	if err := rt.manager.Err(); err != nil {
		if rt.hier != nil {
			rt.hier.Close()
		}
		return err
	}
	if rt.hier != nil {
		return rt.hier.Close()
	}
	return nil
}

// Stats returns per-checkpoint statistics (one entry per Checkpoint call).
func (rt *Runtime) Stats() []EpochStats { return rt.manager.Stats() }

// EpochStats describes one checkpoint: the size of its dirty set, how the
// application's first writes were classified until the next checkpoint
// (COW / WAIT / AVOIDED / AFTER), the timing metrics used throughout the
// paper's evaluation, and the selector prediction scorecard's counters
// with HitRate and RankCorrelation derived from them.
type EpochStats = core.EpochStats

// Allocator is the transparent-capture allocator: all allocations made
// through it are protected and checkpointed.
type Allocator struct {
	rt *Runtime
}

// Alloc allocates n protected bytes.
func (a *Allocator) Alloc(n int) *Region { return a.rt.MallocProtected(n) }

// Calloc allocates count*size protected, zeroed bytes.
func (a *Allocator) Calloc(count, size int) *Region { return a.rt.MallocProtected(count * size) }

// Free releases a region through the runtime.
func (a *Allocator) Free(r *Region) { a.rt.Free(r) }
