package multilevel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DrainPolicy bounds the background promotion of sealed epochs to lower
// tiers.
type DrainPolicy struct {
	// QueueDepth bounds each tier's drain queue; a seal that finds the
	// first queue full blocks until a slot frees (back-pressure toward the
	// application, as in VELOC). Default 4.
	QueueDepth int
	// Workers is the per-tier drain concurrency. Default 1.
	Workers int
	// MaxAttempts is the number of Store attempts per epoch per tier
	// before the copy is marked failed. Default 4.
	MaxAttempts int
	// RetryBackoff is the delay before the first retry; it doubles after
	// every failed attempt, up to MaxRetryBackoff. Default 10ms.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the exponential retry delay so a large
	// MaxAttempts budget against a persistently failing tier retries at a
	// steady cadence instead of sleeping for unbounded doubling intervals.
	// Default 1s (and never below RetryBackoff).
	MaxRetryBackoff time.Duration
}

func (p DrainPolicy) withDefaults() DrainPolicy {
	if p.QueueDepth <= 0 {
		p.QueueDepth = 4
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.RetryBackoff <= 0 {
		p.RetryBackoff = 10 * time.Millisecond
	}
	if p.MaxRetryBackoff <= 0 {
		p.MaxRetryBackoff = time.Second
	}
	if p.MaxRetryBackoff < p.RetryBackoff {
		p.MaxRetryBackoff = p.RetryBackoff
	}
	return p
}

// Config assembles a hierarchy.
type Config struct {
	// Env supplies time, processes and synchronization; sim.NewRealEnv()
	// for real applications, a *sim.Kernel for virtual-time experiments.
	Env sim.Env
	// PageSize is the page granularity of everything stored.
	PageSize int
	// Local is the L1 tier: the committer streams pages into it and a
	// checkpoint is acknowledged as soon as it is sealed there.
	Local *LocalTier
	// Lower are the slower, more resilient tiers in drain order (e.g.
	// erasure-coded peer tier, then parallel file system).
	Lower []Tier
	// Drain bounds the background promotion pipeline.
	Drain DrainPolicy
	// Metrics receives drain-pipeline observability (queue depths, retry
	// and failure counts, per-tier promotion latency, restore counters).
	// Nil disables instrumentation.
	Metrics *obs.Metrics
}

// Hierarchy is a multi-level checkpoint store implementing storage.Backend.
// WritePage and EndEpoch target the fast local tier only; sealing an epoch
// additionally hands it to the background drainer, which promotes it tier
// by tier, retrying with exponential backoff, and maintains the per-epoch
// tier manifest.
//
// Under a virtual-time kernel every method except construction must be
// called from a kernel process, and Close must run before the simulation
// ends (the drain workers are kernel processes that would otherwise be
// reported as deadlocked).
type Hierarchy struct {
	env      sim.Env
	pageSize int
	local    *LocalTier
	lower    []Tier
	policy   DrainPolicy
	obs      *obs.Metrics // nil: observability disabled

	mu         sync.Locker
	notEmpty   []sim.Cond   // per lower tier: queue went non-empty / closing
	notFull    []sim.Cond   // per lower tier: queue has a free slot
	queues     [][]drainJob //aickpt:guardedby mu
	pending    int          //aickpt:guardedby mu (epochs sealed but not yet through the whole pipeline)
	idle       sim.Cond
	closing    bool //aickpt:guardedby mu
	workers    int  //aickpt:guardedby mu
	workerExit sim.Cond
	firstErr   error                     //aickpt:guardedby mu
	manifests  map[uint64]*EpochManifest //aickpt:guardedby mu
	epochs     []uint64                  //aickpt:guardedby mu (sealed epochs in seal order, superseded ones included)
	superseded map[uint64]bool           //aickpt:guardedby mu
	baseMan    *EpochManifest            //aickpt:guardedby mu (tier manifest of the compacted base, if any)
	hasBase    bool                      //aickpt:guardedby mu
	baseFrom   uint64                    //aickpt:guardedby mu
	baseTo     uint64                    //aickpt:guardedby mu
	onSettled  func(epoch uint64)        // called (unlocked) when an epoch retires from the pipeline
}

// drainJob is one epoch moving through the promotion pipeline. data caches
// the epoch content loaded from L1 so a multi-tier pipeline reads (and
// hash-verifies) each epoch once, not once per tier. A base job ships a
// compacted base segment (as the full image at epoch base.To) to lower
// tiers that never received the folded epochs.
type drainJob struct {
	epoch uint64
	data  *EpochData
	base  *ckpt.Manifest // non-nil for base jobs
	// man pins the tier manifest a base job updates: h.baseMan may be
	// replaced by a newer compaction while the job is in flight, and the
	// replacement's Tiers slice need not cover every level this job visits.
	man *EpochManifest
	// enqueuedAt stamps when the job entered the current tier's queue
	// (the Metrics' time source; zero when observability is off or the
	// job came from the recovery scan), feeding the drain-wait span.
	enqueuedAt time.Duration
}

// New builds a hierarchy and starts its drain workers. Epochs already
// sealed on the local tier — a restarted process resuming an existing
// chain — are re-queued for draining: the lower tiers of a fresh hierarchy
// start empty, so the whole chain must be promoted again before it is
// resilient to local-tier loss.
func New(cfg Config) (*Hierarchy, error) {
	if cfg.Env == nil || cfg.Local == nil {
		return nil, fmt.Errorf("multilevel: Config needs Env and Local")
	}
	if cfg.PageSize <= 0 {
		return nil, fmt.Errorf("multilevel: non-positive page size")
	}
	h := &Hierarchy{
		env:        cfg.Env,
		pageSize:   cfg.PageSize,
		local:      cfg.Local,
		lower:      cfg.Lower,
		policy:     cfg.Drain.withDefaults(),
		obs:        cfg.Metrics,
		manifests:  map[uint64]*EpochManifest{},
		superseded: map[uint64]bool{},
	}
	h.mu = h.env.NewMutex()
	h.idle = h.env.NewCond(h.mu)
	h.workerExit = h.env.NewCond(h.mu)
	h.queues = make([][]drainJob, len(h.lower)) //aickpt:allow guardedby pre-publication init
	h.notEmpty = make([]sim.Cond, len(h.lower))
	h.notFull = make([]sim.Cond, len(h.lower))
	for i := range h.lower {
		h.notEmpty[i] = h.env.NewCond(h.mu)
		h.notFull[i] = h.env.NewCond(h.mu)
	}
	// Recovery scan, before any worker exists (single-threaded here). The
	// initial enqueue bypasses the queue-depth bound: back-pressure is a
	// steady-state concern, not a recovery one.
	ch, err := ckpt.LoadChain(h.local.FS())
	if err != nil {
		return nil, fmt.Errorf("multilevel: scan local tier: %w", err)
	}
	if ch.PageSize != 0 && ch.PageSize != h.pageSize {
		return nil, fmt.Errorf("multilevel: local tier chain page size %d != %d", ch.PageSize, h.pageSize)
	}
	h.recoverChainLocked(ch)
	for i := range h.lower {
		for w := 0; w < h.policy.Workers; w++ {
			h.workers++ //aickpt:allow guardedby pre-publication init, no worker observes it before Go
			ti := i
			h.env.Go(fmt.Sprintf("drain-%s-%d", h.lower[i].Name(), w), func() { h.worker(ti) })
		}
	}
	return h, nil
}

// recoverChainLocked re-queues the sealed epochs (and base) of an existing
// chain for draining. It runs pre-publication, from New only: no drain
// worker exists yet, so the single constructing goroutine holds exclusive
// access — the Locked contract — without touching h.mu.
func (h *Hierarchy) recoverChainLocked(ch *ckpt.Chain) {
	if ch.Base != nil {
		h.hasBase = true
		h.baseFrom, h.baseTo = ch.Base.Base.From, ch.Base.Base.To
		for e := h.baseFrom; e <= h.baseTo; e++ {
			h.superseded[e] = true
		}
		// Epochs the base folded that escaped garbage collection (a crash
		// between commit and GC): tracked as superseded, never drained.
		for _, man := range ch.Superseded {
			m := h.newManifest(man)
			h.markSupersededLocked(m)
			h.manifests[man.Epoch] = m
			h.epochs = append(h.epochs, man.Epoch)
			h.mirror(m)
		}
		// Promote the base itself so lower tiers that never saw the folded
		// epochs (a fresh, non-durable tier after restart) still end up
		// holding the full chain content. Tiers that already drained the
		// folded epochs report Has(base.To) and skip the store.
		if len(h.lower) > 0 {
			bm := *ch.Base
			h.baseMan = h.newBaseManifest(bm)
			h.pending++
			h.queues[0] = append(h.queues[0], drainJob{epoch: bm.Epoch, base: &bm, man: h.baseMan})
			h.mirror(h.baseMan)
		}
	}
	for _, man := range ch.Epochs {
		m := h.newManifest(man)
		h.manifests[man.Epoch] = m
		h.epochs = append(h.epochs, man.Epoch)
		if len(h.lower) > 0 {
			h.pending++
			h.queues[0] = append(h.queues[0], drainJob{epoch: man.Epoch})
		}
		h.mirror(m)
	}
	if len(h.lower) > 0 {
		// The recovery scan appended to the first queue directly, bypassing
		// enqueueLocked; bring the gauge in line before workers start.
		h.noteQueueLocked(0)
	}
}

// noteQueueLocked mirrors tier ti's drain-queue length into its gauge.
// Callers hold h.mu.
func (h *Hierarchy) noteQueueLocked(ti int) {
	if h.obs != nil {
		h.obs.DrainQueueDepth[obs.TierIndex(ti+1)].Set(int64(len(h.queues[ti])))
	}
}

// newManifest builds the initial tier manifest for a sealed epoch: present
// on L1, draining toward every lower tier.
func (h *Hierarchy) newManifest(man ckpt.Manifest) *EpochManifest {
	m := &EpochManifest{
		Epoch:     man.Epoch,
		PageSize:  man.PageSize,
		PageCount: man.PageCount,
		Tiers:     []TierCopy{{Tier: h.local.Name(), Level: 0, State: StateStored}},
	}
	for i, t := range h.lower {
		m.Tiers = append(m.Tiers, TierCopy{Tier: t.Name(), Level: i + 1, State: StateDraining})
	}
	return m
}

// newBaseManifest builds the tier manifest for a compacted base promoted
// through the hierarchy.
func (h *Hierarchy) newBaseManifest(man ckpt.Manifest) *EpochManifest {
	m := h.newManifest(man)
	if man.Base != nil {
		b := *man.Base
		m.Base = &b
	}
	return m
}

// markSupersededLocked flips every tier copy of a manifest to superseded:
// the epoch's content now travels with the compacted base. A copy that was
// sitting in the failed state stops being repair debt (scrub would requeue
// it), so the failed-copies gauge drops with it.
func (h *Hierarchy) markSupersededLocked(m *EpochManifest) {
	h.superseded[m.Epoch] = true
	for i := range m.Tiers {
		if m.Tiers[i].State == StateFailed && h.obs != nil {
			h.obs.FailedTierCopies.Add(-1)
		}
		m.Tiers[i].State = StateSuperseded
		m.Tiers[i].Err = ""
	}
}

// LastEpoch returns the newest sealed epoch the hierarchy knows of —
// through live epochs or a compacted base recovered from a pre-existing
// local tier — or ok=false when none exist. Restarted runtimes use it to
// continue epoch numbering.
func (h *Hierarchy) LastEpoch() (epoch uint64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n := len(h.epochs); n > 0 {
		return h.epochs[n-1], true
	}
	if h.hasBase {
		return h.baseTo, true
	}
	return 0, false
}

// Settled reports whether an epoch has fully retired from the drain
// pipeline: every lower tier holds it, or has definitively failed to (the
// drainer gave up after its retry budget; the failure is surfaced through
// Err and the tier manifest). The compactor folds only settled epochs, so
// a compacted base never strands content that exists nowhere below L1.
func (h *Hierarchy) Settled(epoch uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.manifests[epoch]
	if !ok {
		return false
	}
	for _, tc := range m.Tiers[1:] {
		if tc.State == StateDraining {
			return false
		}
	}
	return true
}

// SetOnSettled registers a callback invoked (outside the hierarchy lock)
// whenever an epoch retires from the drain pipeline; the runtime uses it to
// kick the compactor, whose fold gate is Settled.
func (h *Hierarchy) SetOnSettled(fn func(epoch uint64)) {
	h.mu.Lock()
	h.onSettled = fn
	h.mu.Unlock()
}

// MarkSuperseded records that a committed base now covers the epochs in
// its range: their tier manifests flip to superseded (and are re-mirrored
// for offline inspection), the drainer stops shipping them, and the base
// gains its own tier manifest. The compactor calls it between base commit
// and garbage collection.
func (h *Hierarchy) MarkSuperseded(base ckpt.Manifest) {
	if base.Base == nil {
		return
	}
	from, to := base.Base.From, base.Base.To
	h.mu.Lock()
	if !h.hasBase || to > h.baseTo {
		h.hasBase = true
		h.baseFrom, h.baseTo = from, to
	}
	for _, e := range h.epochs {
		if e < from || e > to {
			continue
		}
		if m, ok := h.manifests[e]; ok && m.Tiers[0].State != StateSuperseded {
			h.markSupersededLocked(m)
			h.mirror(m)
		}
	}
	for e := from; e <= to; e++ {
		h.superseded[e] = true
	}
	// The base lives on L1 only: the lower tiers keep the per-epoch copies
	// they drained before the fold (the fold gate), so it is not promoted
	// here. A later restart over a fresh lower tier promotes it.
	if h.baseMan != nil {
		h.dropMirror(h.baseMan)
	}
	h.baseMan = &EpochManifest{
		Epoch:     to,
		PageSize:  base.PageSize,
		PageCount: base.PageCount,
		Base:      &ckpt.BaseRange{From: from, To: to},
		Tiers:     []TierCopy{{Tier: h.local.Name(), Level: 0, State: StateStored}},
	}
	h.mirror(h.baseMan)
	h.mu.Unlock()
}

// PageSize returns the hierarchy's page granularity.
func (h *Hierarchy) PageSize() int { return h.pageSize }

// Local returns the L1 tier.
func (h *Hierarchy) Local() *LocalTier { return h.local }

// WritePage implements storage.Backend: the page goes to L1 only, so the
// committer is acknowledged at local-storage speed.
func (h *Hierarchy) WritePage(epoch uint64, page int, data []byte, size int) error {
	return h.local.WritePage(epoch, page, data, size)
}

// EndEpoch implements storage.Backend: it seals the epoch on L1, records
// the tier manifest, and enqueues the epoch for background promotion. It
// blocks only when the first drain queue is full (back-pressure).
func (h *Hierarchy) EndEpoch(epoch uint64) error {
	if err := h.local.EndEpoch(epoch); err != nil {
		return err
	}
	man, err := ckpt.ReadManifest(h.local.FS(), epoch)
	if err != nil {
		return fmt.Errorf("multilevel: reread sealed epoch %d: %w", epoch, err)
	}
	m := h.newManifest(man)
	h.mu.Lock()
	h.manifests[epoch] = m
	h.epochs = append(h.epochs, epoch)
	if len(h.lower) > 0 {
		h.pending++
		h.enqueueLocked(0, drainJob{epoch: epoch})
	}
	h.mirror(m)
	h.mu.Unlock()
	return nil
}

// enqueueLocked appends a job to tier ti's queue, blocking while it is at
// capacity. Callers hold h.mu.
func (h *Hierarchy) enqueueLocked(ti int, job drainJob) {
	for len(h.queues[ti]) >= h.policy.QueueDepth {
		h.notFull[ti].Wait()
	}
	// One clock read serves both the drain-wait span (via the job stamp)
	// and the trace event.
	job.enqueuedAt = h.obs.Now()
	h.queues[ti] = append(h.queues[ti], job)
	h.noteQueueLocked(ti)
	if h.obs != nil {
		h.obs.TraceAt(job.enqueuedAt, obs.StageDrain, job.epoch, -1, int8(ti+1), int64(len(h.queues[ti])))
	}
	h.notEmpty[ti].Signal()
}

// mirror best-effort persists a tier manifest next to the L1 epoch files;
// the in-memory manifest is authoritative while the hierarchy lives.
// Callers hold h.mu, which both keeps the snapshot consistent and
// serializes writers of the same file (a stale-snapshot overwrite would
// otherwise leave the offline mirror permanently behind).
func (h *Hierarchy) mirror(m *EpochManifest) {
	_ = writeTierManifest(h.local.FS(), m)
}

// dropMirror removes a manifest's on-FS mirror (used when a newer base
// replaces an older one). Callers hold h.mu.
func (h *Hierarchy) dropMirror(m *EpochManifest) {
	_ = h.local.FS().Remove(mirrorName(m))
}

// worker is one drain process for lower tier ti.
func (h *Hierarchy) worker(ti int) {
	for {
		h.mu.Lock()
		for len(h.queues[ti]) == 0 && !h.closing {
			h.notEmpty[ti].Wait()
		}
		if len(h.queues[ti]) == 0 {
			h.workers--
			if h.workers == 0 {
				h.workerExit.Broadcast()
			}
			h.mu.Unlock()
			return
		}
		job := h.queues[ti][0]
		h.queues[ti] = h.queues[ti][1:]
		h.noteQueueLocked(ti)
		h.notFull[ti].Signal()
		h.mu.Unlock()
		h.drainOne(ti, job)
	}
}

// drainOne promotes one epoch to lower tier ti: load it from L1 (unless a
// previous tier already did — the loaded content rides along in the job),
// store it with bounded retries, record the outcome in the tier manifest,
// and hand the epoch to the next tier (or retire it from the pipeline).
// Epochs superseded by a compacted base while queued are skipped — their
// content travels with the base — and base jobs ship the consolidated
// image under the epoch number the base ends at.
func (h *Hierarchy) drainOne(ti int, job drainJob) {
	tier := h.lower[ti]
	h.mu.Lock()
	skip := job.base == nil && h.superseded[job.epoch]
	h.mu.Unlock()
	var err error
	// A tier that already holds a healthy copy (restart recovery over a
	// durable tier) is left untouched: re-storing would truncate-and-
	// rewrite a good copy in place.
	held := false
	if holder, ok := tier.(EpochHolder); ok && holder.Has(job.epoch) {
		held = true
	}
	pstart := h.obs.Now()
	if !held && !skip {
		ep := job.data
		if ep == nil {
			if job.base != nil {
				var pages ckpt.PageSet
				pages, _, err = ckpt.FoldChain(h.local.FS(), []ckpt.Manifest{*job.base}, 1)
				if err == nil {
					ep = &EpochData{Epoch: job.epoch, PageSize: h.pageSize, Pages: pages}
				}
			} else {
				ep, err = h.local.Load(job.epoch)
			}
		}
		if err == nil {
			job.data = ep
			backoff := h.policy.RetryBackoff
			for attempt := 1; ; attempt++ {
				if err = tier.Store(ep); err == nil || attempt >= h.policy.MaxAttempts {
					break
				}
				if h.obs != nil {
					h.obs.DrainRetries.Inc()
				}
				h.env.Sleep(backoff)
				backoff *= 2
				if backoff > h.policy.MaxRetryBackoff {
					backoff = h.policy.MaxRetryBackoff
				}
			}
		}
	}
	h.mu.Lock()
	m := job.man
	if m == nil {
		m = h.manifests[job.epoch]
	}
	tc := &m.Tiers[ti+1]
	switch {
	case skip:
		tc.State = StateSuperseded
		tc.Err = ""
	case err != nil:
		tc.State = StateFailed
		tc.Err = err.Error()
		if h.firstErr == nil {
			h.firstErr = fmt.Errorf("multilevel: drain epoch %d to %s: %w", job.epoch, tier.Name(), err)
		}
		if h.obs != nil {
			h.obs.DrainFailures.Inc()
			h.obs.FailedTierCopies.Add(1)
			h.obs.Trace(obs.StagePromoteFail, job.epoch, -1, int8(ti+1), 0)
		}
	default:
		tc.State = StateStored
		if dr, ok := tier.(DegradedReporter); ok && dr.Degraded(job.epoch) {
			tc.State = StateDegraded
		}
		if l, ok := tier.(Layouter); ok {
			tc.Shards = l.Layout(job.epoch)
		}
		if h.obs != nil {
			pend := h.obs.Now()
			d := int64(pend - pstart)
			h.obs.PromoteNs[obs.TierIndex(ti+1)].Observe(d)
			h.obs.TraceAt(pend, obs.StagePromote, job.epoch, -1, int8(ti+1), d)
			// Lifecycle spans from the clock reads already taken: time
			// queued behind earlier epochs, then the store itself.
			h.obs.Span(obs.SpanDrainWait, job.epoch, int8(ti+1), job.enqueuedAt, pstart)
			h.obs.Span(obs.SpanPromote, job.epoch, int8(ti+1), pstart, pend)
		}
	}
	h.mirror(m)
	retired := false
	if ti+1 < len(h.lower) {
		h.enqueueLocked(ti+1, job)
	} else {
		h.pending--
		retired = true
		if h.obs != nil {
			h.obs.EpochsDrained.Inc()
		}
		if h.pending == 0 {
			h.idle.Broadcast()
		}
	}
	settled := h.onSettled
	h.mu.Unlock()
	if retired && settled != nil {
		settled(job.epoch)
	}
}

// WaitDrained blocks until every sealed epoch has moved through the whole
// pipeline (stored or failed on every tier).
func (h *Hierarchy) WaitDrained() {
	h.mu.Lock()
	for h.pending > 0 {
		h.idle.Wait()
	}
	h.mu.Unlock()
}

// Err returns the first drain error, if any. Failed tier copies do not stop
// the pipeline — the epoch still reaches the remaining tiers — but they are
// surfaced here and in the manifest.
func (h *Hierarchy) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.firstErr
}

// Close drains all in-flight promotions, stops the drain workers and
// returns the first drain error. Under a virtual-time kernel it must be
// called from a kernel process.
func (h *Hierarchy) Close() error {
	h.WaitDrained()
	h.mu.Lock()
	if !h.closing {
		h.closing = true
		for _, c := range h.notEmpty {
			c.Broadcast()
		}
	}
	for h.workers > 0 {
		h.workerExit.Wait()
	}
	err := h.firstErr
	h.mu.Unlock()
	return err
}

// Manifests returns a copy of every epoch's tier manifest in seal order,
// with the compacted base's manifest (when one exists) inserted between
// the epochs it supersedes and the live epochs after it.
func (h *Hierarchy) Manifests() []EpochManifest {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]EpochManifest, 0, len(h.epochs)+1)
	baseAdded := h.baseMan == nil
	for _, e := range h.epochs {
		if !baseAdded && e > h.baseMan.Base.To {
			out = append(out, h.baseMan.Copy())
			baseAdded = true
		}
		out = append(out, h.manifests[e].Copy())
	}
	if !baseAdded {
		out = append(out, h.baseMan.Copy())
	}
	return out
}
