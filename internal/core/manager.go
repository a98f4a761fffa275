package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/util"
)

// Manager is the page manager of one application process (Figure 1 of the
// paper). It consists of the two concurrent modules of §3.3: the
// asynchronous committer (ASYNC_COMMIT) and the write-fault handler
// (PROTECTED_PAGE_HANDLER), which compete for the monitored pages and
// synchronize through the manager's mutex and condition variables.
//
// The committer is a pipeline of Config.CommitWorkers concurrent workers
// and the one flush of every strategy: each pulls the next page in the
// epoch's flush order under the manager lock, then performs the storage
// write off-lock, so independent page writes overlap and the flush
// approaches the aggregate bandwidth of the backend instead of a single
// stream's. An epoch-end barrier orders every page write before the single
// EndEpoch seal. The strategies differ only in the flush order's tiers and
// in whether Checkpoint waits for the seal. While no application thread is
// parked inside the manager, at most Env.Cores()−1 workers pull pages, so the
// running application keeps a core; while one waits, all of them pull.
type Manager struct {
	cfg   Config
	env   sim.Env
	space *pagemem.Space
	store storage.Backend
	obs   *obs.Metrics // nil: observability disabled

	mu            sync.Locker
	committerKick sim.Cond // committer <- Checkpoint notifications
	pageDone      sim.Cond // handler <- committer page/slot notifications
	ckptDone      sim.Cond // Checkpoint/WaitIdle/worker barrier <- epoch seal
	exitDone      sim.Cond // Close <- committer exit

	epoch      uint64 //aickpt:guardedby mu
	inProgress bool   //aickpt:guardedby mu
	closed     bool   //aickpt:guardedby mu
	exited     bool   //aickpt:guardedby mu
	firstErr   error  //aickpt:guardedby mu

	workers       int  //aickpt:guardedby mu (committer workers spawned)
	exitedWorkers int  //aickpt:guardedby mu (workers that have returned)
	inflight      int  //aickpt:guardedby mu (pages pulled by a worker but not yet Processed)
	sealing       bool //aickpt:guardedby mu (a worker is inside EndEpoch for the current epoch)
	parked        int  //aickpt:guardedby mu (application threads waiting inside the manager)
	idleLimit     int  // workers that may pull while no application thread is parked

	// Per-page metadata, indexed by global page ID (§3.3 data structures).
	npages    int
	state     []PageState
	at        []AccessType
	index     []int32
	lastAT    []AccessType
	lastIndex []int32
	dirty     *util.Bitset
	lastDirty *util.Bitset

	accessOrder int32
	liveRanges  [][2]int // rotation scratch: live [first, end) page ranges

	// Selector prediction scorecard state. flushRank records the pull
	// order of the current epoch's flush (1-based, 0 = not pulled);
	// together with index (the fault arrival order) it feeds the
	// footrule accumulated in m.cur. heatShift buckets a page id into
	// the per-epoch fault heatmaps: bucket = page >> heatShift, clamped.
	flushRank []int32
	flushSeq  int32
	heatShift uint

	cow          map[int][]byte //aickpt:guardedby mu (page -> pre-write copy; nil value: phantom)
	cowUsed      int            //aickpt:guardedby mu
	cowPool      [][]byte       //aickpt:guardedby mu (recycled COW page copies, bounded by CowSlots)
	waited       pageQueue      //aickpt:guardedby mu (pages the application is blocked on, WaitedPage)
	liveCowQueue []int          //aickpt:guardedby mu (pages that took a COW slot this epoch)
	liveCowHead  int            //aickpt:guardedby mu (consumed prefix of liveCowQueue)

	// The flush order is embedded and rebuilt in place each epoch, so the
	// steady-state epoch setup allocates nothing. The adaptive classes are
	// built lazily by the first committer worker to enter the epoch —
	// off the application-blocking path — guarded by selReady/selBuilding.
	order       flushOrder
	selReady    bool         //aickpt:guardedby mu (current epoch's flush order is built)
	selBuilding bool         //aickpt:guardedby mu (a worker is building it with m.mu released)
	selDirty    *util.Bitset // builder's dirty-set snapshot (reused scratch)

	cur     EpochStats
	history []EpochStats
}

// NewManager builds a manager over cfg.Space, installs its fault handler and
// starts the committer workers.
func NewManager(cfg Config) *Manager {
	if cfg.Env == nil || cfg.Space == nil || cfg.Store == nil {
		panic("core: Config needs Env, Space and Store")
	}
	if cfg.CowSlots < 0 {
		panic("core: negative CowSlots")
	}
	if cfg.CommitWorkers < 0 {
		panic("core: negative CommitWorkers")
	}
	if cfg.CommitWorkers == 0 {
		cfg.CommitWorkers = 1
	}
	if cfg.Name == "" {
		cfg.Name = "aickpt"
	}
	m := &Manager{
		cfg:       cfg,
		env:       cfg.Env,
		space:     cfg.Space,
		store:     cfg.Store,
		obs:       cfg.Metrics,
		epoch:     cfg.FirstEpoch,
		cow:       map[int][]byte{},
		dirty:     util.NewBitset(0),
		lastDirty: util.NewBitset(0),
	}
	m.mu = m.env.NewMutex()
	m.committerKick = m.env.NewCond(m.mu)
	m.pageDone = m.env.NewCond(m.mu)
	m.ckptDone = m.env.NewCond(m.mu)
	m.exitDone = m.env.NewCond(m.mu)
	m.space.SetFaultHandler(m.handleFault)
	// Pre-publication: m is not shared until NewManager returns, so this
	// init write needs no lock.
	m.workers = cfg.CommitWorkers //aickpt:allow guardedby pre-publication init
	m.idleLimit = cfg.CommitWorkers
	if c := m.env.Cores(); c > 0 {
		m.idleLimit = max(1, min(cfg.CommitWorkers, c-1))
	}
	//aickpt:allow guardedby pre-publication init
	for w := 0; w < m.workers; w++ {
		w := w
		m.env.Go(fmt.Sprintf("%s-committer-%d", cfg.Name, w), func() { m.committer(w) })
	}
	return m
}

// Epoch returns the number of checkpoints requested so far.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Err returns the first storage error encountered, if any.
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firstErr
}

// ensureLocked grows the per-page metadata to cover at least n pages.
func (m *Manager) ensureLocked(n int) {
	if n <= m.npages {
		return
	}
	grow := n + n/4
	st := make([]PageState, grow)
	copy(st, m.state)
	m.state = st
	at := make([]AccessType, grow)
	copy(at, m.at)
	m.at = at
	idx := make([]int32, grow)
	copy(idx, m.index)
	m.index = idx
	lat := make([]AccessType, grow)
	copy(lat, m.lastAT)
	m.lastAT = lat
	lidx := make([]int32, grow)
	copy(lidx, m.lastIndex)
	m.lastIndex = lidx
	fr := make([]int32, grow)
	copy(fr, m.flushRank)
	m.flushRank = fr
	m.dirty.Grow(grow)
	m.lastDirty.Grow(grow)
	m.npages = grow
}

// Checkpoint initiates a checkpoint (the CHECKPOINT primitive, Algorithm 1):
// wait for a previous checkpoint to complete, rotate the epoch bookkeeping,
// write-protect all pages and wake the committer. Under the asynchronous
// strategies the application does not block during the flush itself; under
// Sync the same committer flushes the epoch while Checkpoint waits for its
// seal.
func (m *Manager) Checkpoint() {
	start := m.env.Now()
	// Acquire the space's write gate before rotating, so no application
	// store that already passed its fault check is still copying into a
	// page we are about to schedule (lock order: writeGate, then m.mu —
	// the same order the fault handler uses).
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			panic("core: Checkpoint on closed manager")
		}
		for m.inProgress {
			m.parkedWaitLocked(m.ckptDone)
		}
		m.mu.Unlock()
		m.space.LockWrites()
		m.mu.Lock()
		if !m.inProgress {
			break
		}
		// A concurrent Checkpoint rotated first; retry.
		m.mu.Unlock()
		m.space.UnlockWrites()
	}
	blocked := m.env.Now() - start
	m.rotateLocked(start, blocked)
	m.space.UnlockWrites()
	epoch := m.epoch
	m.inProgress = true
	// Only name the order here: the adaptive O(dirty) class build runs on
	// the first committer worker to enter the epoch, after Checkpoint has
	// returned, so the application never blocks on it.
	m.order.cursor = 0
	m.selReady = m.cfg.Strategy != Adaptive
	m.committerKick.Broadcast()
	if m.cfg.Strategy == Sync {
		// Another thread's Checkpoint may rotate the next epoch before this
		// one wakes, so the wait ends at this epoch's seal, not at idle.
		for m.inProgress && m.epoch == epoch {
			m.parkedWaitLocked(m.ckptDone)
		}
		blocked = m.env.Now() - start
	}
	if m.obs != nil {
		m.obs.CheckpointsTotal.Inc()
		m.obs.CheckpointBlockedNs.Observe(int64(blocked))
		m.obs.Trace(obs.StageCheckpoint, epoch, -1, 0, int64(blocked))
	}
	m.mu.Unlock()
}

// rotateLocked swaps the epoch data structures (Algorithm 1 lines 5-17) and
// finalizes the closing epoch's statistics.
func (m *Manager) rotateLocked(start, blocked time.Duration) {
	m.ensureLocked(m.space.NumPages())
	if m.epoch > m.cfg.FirstEpoch {
		m.finalizeScorecardLocked()
		m.history = append(m.history, m.cur)
	}
	m.epoch++
	// Swap current/previous epoch structures; the new current starts clean.
	m.dirty, m.lastDirty = m.lastDirty, m.dirty
	m.dirty.Reset()
	m.at, m.lastAT = m.lastAT, m.at
	m.index, m.lastIndex = m.lastIndex, m.index
	m.accessOrder = 0
	m.waited.reset()
	// Reset the live-COW queue to its backing array's start: the flush
	// order consumes it through liveCowHead, so one array serves every epoch
	// instead of the pop-by-reslice re-growing it each time.
	m.liveCowQueue = m.liveCowQueue[:0]
	m.liveCowHead = 0
	// Re-protect every live page and reset its access record, one region
	// batch at a time (a per-page Protect loop would redo the region
	// lookup for every page while the application is blocked on the write
	// gate).
	m.liveRanges = m.liveRanges[:0]
	m.space.ProtectLiveRegions(func(first, count int) {
		clear(m.at[first : first+count])
		clear(m.index[first : first+count])
		clear(m.flushRank[first : first+count])
		m.liveRanges = append(m.liveRanges, [2]int{first, first + count})
	})
	m.flushSeq = 0
	// Size the heatmap buckets to the tracked page space; pages grown
	// into existence mid-epoch clamp into the last bucket.
	m.heatShift = 0
	for m.npages>>m.heatShift > obs.HeatBuckets {
		m.heatShift++
	}
	// Schedule the dirty pages of the closing epoch; drop freed pages. Both
	// the dirty set and the range list are ascending, so one merged scan
	// decides liveness without a per-page region lookup.
	committed := 0
	ri := 0
	for p := m.lastDirty.NextSet(0); p >= 0; p = m.lastDirty.NextSet(p + 1) {
		for ri < len(m.liveRanges) && p >= m.liveRanges[ri][1] {
			ri++
		}
		if ri == len(m.liveRanges) || p < m.liveRanges[ri][0] {
			m.lastDirty.Clear(p)
			continue
		}
		m.state[p] = Scheduled
		committed++
	}
	m.cur = EpochStats{
		Epoch:               m.epoch,
		PagesCommitted:      committed,
		BytesCommitted:      int64(committed) * int64(m.space.PageSize()),
		BlockedInCheckpoint: blocked,
		Start:               start,
	}
}

// finalizeScorecardLocked closes out the departing epoch's selector
// prediction scorecard (its fault window ends at this rotation) and
// publishes the once-per-epoch scorecard metric families. Runs at
// rotation, off the per-page hot path.
func (m *Manager) finalizeScorecardLocked() {
	m.cur.FaultArrivals = int(m.accessOrder)
	if m.obs != nil {
		m.obs.SelectorHitRatePm.Observe(int64(m.cur.HitRate() * 1000))
		m.obs.SelectorRankCorrPm.Observe(int64(m.cur.RankCorrelation() * 1000))
		m.obs.WaitedQueuePeak.Observe(int64(m.cur.MaxWaitedDepth))
	}
}

// notePullLocked records that page p was pulled for commit as the next
// page of the epoch's flush order, and accumulates the footrule pair if
// the page already faulted this epoch (the fault handler accumulates
// the pair for the opposite arrival order). A few integer ops under the
// lock already held — nothing allocates.
func (m *Manager) notePullLocked(p int) {
	m.flushSeq++
	m.flushRank[p] = m.flushSeq
	if fi := m.index[p]; fi != 0 {
		m.cur.FootruleSum += footrule(m.flushSeq, fi)
		m.cur.RankPairs++
	}
}

// footrule is |a - b| widened to int64.
func footrule(a, b int32) int64 {
	d := int64(a) - int64(b)
	if d < 0 {
		d = -d
	}
	return d
}

// heatBucketLocked maps a page id into the per-epoch heatmaps.
func (m *Manager) heatBucketLocked(page int) int {
	b := page >> m.heatShift
	if b >= obs.HeatBuckets {
		b = obs.HeatBuckets - 1
	}
	return b
}

// parkedWaitLocked is an application thread's wait on c. A waiting thread
// needs no core, so while one is parked every commit worker may pull; the
// first to park wakes the workers the cap holds back.
func (m *Manager) parkedWaitLocked(c sim.Cond) {
	m.parked++
	if m.parked == 1 && m.idleLimit < m.workers {
		m.committerKick.Broadcast()
	}
	c.Wait()
	m.parked--
}

// activeLimitLocked is how many commit workers may pull pages now: all of
// them while an application thread is parked, otherwise the idle limit.
func (m *Manager) activeLimitLocked() int {
	if m.parked > 0 {
		return m.workers
	}
	return m.idleLimit
}

// committer is one worker of the ASYNC_COMMIT module (Algorithm 3,
// parallelized): it drains the scheduled set together with its peers,
// committing the COW copy when one exists and otherwise locking the page,
// writing it and notifying any waiting writer.
func (m *Manager) committer(worker int) {
	m.mu.Lock()
	for {
		for !m.inProgress && !m.closed {
			m.committerKick.Wait()
		}
		if !m.inProgress {
			break
		}
		m.flushEpochLocked(worker)
	}
	m.exitedWorkers++
	if m.exitedWorkers == m.workers {
		m.exited = true
		m.exitDone.Broadcast()
	}
	m.mu.Unlock()
}

// flushEpochLocked is one worker's participation in the current epoch's
// flush, and the only code that writes or seals an epoch. Pages are pulled
// from the flush order under the lock — pulling clears the page from the
// remaining set, so no two workers ever commit the same page — and written
// to storage off-lock, concurrently with the other workers. When the order runs dry the worker joins the epoch-end
// barrier: the worker that observes the last in-flight write retired seals
// the epoch with a single EndEpoch, the rest wait for the seal (or for the
// next epoch to start). A worker at or past activeLimitLocked neither builds
// the order nor pulls: it waits on committerKick until an application thread
// parks or the epoch ends. Called and returns with m.mu held.
func (m *Manager) flushEpochLocked(worker int) {
	epoch := m.epoch
	pageSize := m.space.PageSize()
	// Build the epoch's flush order if it is not ready yet: the first worker
	// in claims the build and runs it with the lock released, so a
	// fault-handler caller is never blocked behind the bucketing. The
	// inputs are snapshotted under the lock first: the *contents* of
	// LastDirty/LastAT/LastIndex are frozen between rotation and the first
	// page pull (no page is pulled before selReady), but a fault on a page
	// past the tracked range makes ensureLocked swap in grown arrays, so
	// the builder must not chase the live slice headers. The snapshot
	// headers stay valid because growth copies into fresh arrays and never
	// writes the old ones; the bitset is copied into a reusable scratch
	// because Grow mutates the bitset struct in place. Late and capped
	// workers wait.
	for !m.selReady && m.inProgress && m.epoch == epoch {
		if m.selBuilding || worker >= m.activeLimitLocked() {
			m.committerKick.Wait()
			continue
		}
		m.selBuilding = true
		if m.selDirty == nil || m.selDirty.Len() != m.lastDirty.Len() {
			m.selDirty = m.lastDirty.Clone()
		} else {
			m.selDirty.CopyFrom(m.lastDirty)
		}
		dirty, lastAT, lastIndex := m.selDirty, m.lastAT, m.lastIndex
		m.mu.Unlock()
		bstart := m.obs.Now()
		m.order.build(dirty, lastAT, lastIndex)
		if m.obs != nil {
			bend := m.obs.Now()
			d := int64(bend - bstart)
			m.obs.SelectorBuildNs.Observe(d)
			m.obs.TraceAt(bend, obs.StageSelect, epoch, -1, 0, d)
		}
		m.mu.Lock()
		m.selBuilding = false
		m.selReady = true
		m.committerKick.Broadcast()
	}
	for m.inProgress && m.epoch == epoch {
		if worker >= m.activeLimitLocked() {
			m.committerKick.Wait()
			continue
		}
		p := m.order.nextLocked(m, m.lastDirty)
		if p < 0 {
			break
		}
		// Pull: from here on this worker owns the page. Clearing it from
		// the remaining set keeps the other workers (and the order's
		// stale-entry skipping) away from it.
		m.lastDirty.Clear(p)
		m.notePullLocked(p)
		isCow := m.at[p] == Cow
		var data []byte
		if isCow {
			data = m.cow[p]
		} else {
			data = m.space.PageData(p)
		}
		m.state[p] = InProgress
		m.inflight++
		m.mu.Unlock()
		// Off-lock write. For a non-COW page the slice aliases live memory,
		// but any application write to it first faults and blocks until the
		// page is Processed, so the content cannot change underneath us.
		wstart := m.obs.Now()
		err := m.store.WritePage(epoch, p, data, pageSize)
		if m.obs != nil {
			wend := m.obs.Now()
			d := int64(wend - wstart)
			m.obs.CommitWriteNs.Observe(d)
			m.obs.CommitPages.Inc()
			m.obs.CommitBytes.Add(uint64(pageSize))
			m.obs.WorkerPages[obs.WorkerIndex(worker)].Inc()
			m.obs.TraceAt(wend, obs.StageWrite, epoch, int32(p), 0, d)
		}
		m.mu.Lock()
		m.noteErrLocked(err)
		if isCow {
			delete(m.cow, p)
			m.cowUsed--
			if m.obs != nil {
				m.obs.CowInUse.Add(-1)
			}
			// A slot was released: writers blocked for lack of slots
			// could proceed... but per Algorithm 2 they wait for their
			// page; waking them re-checks the predicate harmlessly.
			if data != nil {
				// Recycle the copy for the next COW fault: the store
				// contract makes data invalid past WritePage's return, so
				// nothing references it anymore. The pool never exceeds
				// CowSlots entries (at most that many copies exist at once).
				m.cowPool = append(m.cowPool, data)
			}
		}
		m.state[p] = Processed
		m.inflight--
		m.pageDone.Broadcast()
	}
	// Epoch-end barrier. The epoch is complete when the remaining set is
	// empty (the order just ran dry and nothing re-enters it mid-epoch)
	// and no pulled page is still being written. Exactly one worker claims
	// the seal; the others wait on ckptDone, re-checking against the epoch
	// number in case they wake into an already-started next epoch (then
	// they return and re-enter through the committer loop).
	for m.inProgress && m.epoch == epoch {
		if m.inflight == 0 && !m.sealing {
			m.sealing = true
			if m.cowUsed != 0 || len(m.cow) != 0 {
				panic(fmt.Sprintf("core: %d COW slots leaked at end of epoch %d", m.cowUsed, epoch))
			}
			estart := m.cur.Start
			m.mu.Unlock()
			sstart := m.obs.Now()
			err := m.store.EndEpoch(epoch)
			if m.obs != nil {
				send := m.obs.Now()
				d := int64(send - sstart)
				m.obs.SealNs.Observe(d)
				m.obs.EpochsSealed.Inc()
				m.obs.TraceAt(send, obs.StageSeal, epoch, -1, 0, d)
				// Lifecycle spans, from the same clock reads: the commit
				// span covers the whole local phase with the seal as its
				// final child.
				m.obs.Span(obs.SpanCommit, epoch, 0, estart, send)
				m.obs.Span(obs.SpanSeal, epoch, 0, sstart, send)
			}
			m.mu.Lock()
			m.noteErrLocked(err)
			m.sealing = false
			m.inProgress = false
			m.cur.Duration = m.env.Now() - m.cur.Start
			if m.cfg.Strategy == Sync {
				// The application waited from its Checkpoint call to here.
				m.cur.BlockedInCheckpoint = m.cur.Duration
			}
			m.ckptDone.Broadcast()
			if m.idleLimit < m.workers {
				// Release the capped workers, which Close may be waiting on.
				m.committerKick.Broadcast()
			}
			return
		}
		m.ckptDone.Wait()
	}
}

// handleFault is the PROTECTED_PAGE_HANDLER module (Algorithm 2), invoked
// by the pagemem substrate on the first write to a protected page.
//
//aickpt:hotpath
func (m *Manager) handleFault(page int) {
	cost := m.cfg.FaultCost
	var fstart time.Duration
	if m.obs != nil {
		fstart = m.obs.Now()
	}
	m.mu.Lock()
	m.ensureLocked(page + 1)
	if !m.space.IsProtected(page) {
		// Another thread handled this page between the fault and the lock.
		m.mu.Unlock()
		return
	}
	switch {
	case m.state[page] == Scheduled && m.cowUsed < m.cfg.CowSlots:
		// Take a copy-on-write slot: the committer will flush the copy,
		// the application writes the original immediately. Copies come
		// from the recycle pool when one is free — the fault path then
		// allocates only while the pool warms up.
		var cp []byte
		if data := m.space.PageData(page); data != nil {
			if n := len(m.cowPool); n > 0 {
				cp = m.cowPool[n-1][:len(data)]
				m.cowPool[n-1] = nil
				m.cowPool = m.cowPool[:n-1]
			} else {
				cp = make([]byte, len(data))
			}
			copy(cp, data)
		}
		m.cow[page] = cp
		m.cowUsed++
		m.at[page] = Cow
		m.cur.Cows++
		m.liveCowQueue = append(m.liveCowQueue, page)
		cost += m.cfg.CowCopyCost
		if m.obs != nil {
			m.obs.FaultsCow.Inc()
			m.obs.CowInUse.Add(1)
			m.obs.Trace(obs.StageCow, m.epoch, int32(page), 0, int64(m.cowUsed))
		}
	case m.state[page] == Processed:
		if m.inProgress {
			m.at[page] = Avoided
			m.cur.Avoided++
			if m.obs != nil {
				m.obs.FaultsAvoided.Inc()
			}
		} else {
			m.at[page] = After
			m.cur.After++
			if m.obs != nil {
				m.obs.FaultsAfter.Inc()
			}
		}
	default:
		// Page in flight, or scheduled with no free COW slot: wait until
		// the committer processes it, hinting it via the waited queue so
		// the flush order serves it first. The queue dedups on enqueue,
		// so several threads blocking on one page share a single entry.
		m.waited.push(page)
		if d := m.waited.len(); d > m.cur.MaxWaitedDepth {
			m.cur.MaxWaitedDepth = d
		}
		waitStart := m.env.Now()
		for m.state[page] != Processed {
			m.parkedWaitLocked(m.pageDone)
		}
		m.waited.remove(page)
		m.at[page] = Wait
		m.cur.Waits++
		waited := m.env.Now() - waitStart
		m.cur.WaitTime += waited
		if m.obs != nil {
			m.obs.FaultsWait.Inc()
			m.obs.FaultWaitNs.Observe(int64(waited))
			m.obs.Trace(obs.StageWait, m.epoch, int32(page), 0, int64(waited))
		}
	}
	m.dirty.Set(page)
	m.accessOrder++
	m.index[page] = m.accessOrder
	// Scorecard: if the page was already pulled for commit this epoch we
	// now know both its predicted and actual rank (the pull site handles
	// the opposite order), and the fault lands in the heatmap. Plain
	// integer ops under the lock — the fault path stays allocation-free.
	if fr := m.flushRank[page]; fr != 0 {
		m.cur.FootruleSum += footrule(fr, m.accessOrder)
		m.cur.RankPairs++
	}
	hb := m.heatBucketLocked(page)
	m.cur.FaultHeat[hb]++
	if m.at[page] == Cow {
		m.cur.CowHeat[hb]++
	}
	epoch := m.epoch
	m.space.Unprotect(page)
	m.mu.Unlock()
	if m.obs != nil {
		fend := m.obs.Now()
		d := int64(fend - fstart)
		m.obs.FaultNs.Observe(d)
		m.obs.TraceAt(fend, obs.StageFault, epoch, int32(page), 0, d)
	}
	if cost > 0 {
		m.env.Sleep(cost)
	}
}

func (m *Manager) noteErrLocked(err error) {
	if err != nil && m.firstErr == nil {
		m.firstErr = err
	}
}

// WaitIdle blocks until no checkpoint is in progress.
func (m *Manager) WaitIdle() {
	m.mu.Lock()
	for m.inProgress {
		m.parkedWaitLocked(m.ckptDone)
	}
	m.mu.Unlock()
}

// Free releases a protected region through the manager: it waits for any
// in-flight checkpoint (whose committer may still need the region's pages),
// drops the pages from the dirty set and frees the region.
func (m *Manager) Free(r *pagemem.Region) {
	m.mu.Lock()
	for m.inProgress {
		m.parkedWaitLocked(m.ckptDone)
	}
	first, count := r.Pages()
	for p := first; p < first+count && p < m.npages; p++ {
		m.dirty.Clear(p)
	}
	m.mu.Unlock()
	r.Free()
}

// Close drains the in-flight checkpoint, stops the committer and detaches
// the fault handler. The manager must not be used afterwards.
func (m *Manager) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.committerKick.Broadcast()
	}
	for !m.exited {
		m.exitDone.Wait()
	}
	m.mu.Unlock()
	m.space.SetFaultHandler(nil)
}

// Stats returns per-checkpoint statistics: all finalized epochs plus the
// current one (whose access counters may still grow if the application
// keeps writing).
func (m *Manager) Stats() []EpochStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]EpochStats, 0, len(m.history)+1)
	out = append(out, m.history...)
	if m.epoch > m.cfg.FirstEpoch {
		cur := m.cur
		// The live epoch's fault window is still open; report the
		// arrivals so far (finalized for good at the next rotation).
		cur.FaultArrivals = int(m.accessOrder)
		out = append(out, cur)
	}
	return out
}

// Scorecards renders the selector prediction scorecard of every epoch
// reported by Stats, in the observability wire form.
func (m *Manager) Scorecards() []obs.Scorecard {
	stats := m.Stats()
	out := make([]obs.Scorecard, len(stats))
	for i, ep := range stats {
		out[i] = ep.Scorecard()
	}
	return out
}
