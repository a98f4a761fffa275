package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	aickpt "repro"
	"repro/benchmark/corpus"
	"repro/benchmark/stats"
)

const (
	regionPages    = 16384 // 64 MiB, before passConfig.scale divides it
	nominalSeconds = 15    // the -seconds every epoch count below is sized for
	setupRepeats   = 3     // setup_s is the median of this many set-ups
)

// workloadDef is one named workload. Every workload runs the same phases —
// set-up, the application loop, restores, a forced compaction, restores
// again — and differs in the storage stack, the page contents and what the
// application does between checkpoints.
type workloadDef struct {
	name string
	why  string
	mix  corpus.Mix
	spec stackSpec // dir and strategy are filled in per run
	// pages is the size of the region, regionPages unless stated.
	pages int
	// epochs is the number of measured checkpoints at nominalSeconds.
	epochs int
	// dirtyDiv is the share of the region an epoch dirties, as a divisor.
	dirtyDiv int
	// restores is the number of timed restores per restore phase, fewer
	// where one restore reads a gigabyte.
	restores int
	// app is the application: it writes pages and requests r.epochs
	// measured checkpoints after one warm-up checkpoint.
	app func(r *run)
}

var workloads = []workloadDef{
	{
		name: "stencil-race",
		why:  "application writes race the flush, so pagemem and core (fault path, COW, flush order) decide the result and codec and tiers do nothing",
		mix:  corpus.AllStencil,
		// 1/16 of the region, the paper's 16 MB buffer for 256 MB of memory.
		spec:     stackSpec{cowBuffer: regionPages * pageSize / 16},
		pages:    regionPages,
		epochs:   12,
		dirtyDiv: 1,
		restores: 2,
		app:      stencilRace,
	},
	{
		name: "flate-dedup-burst",
		why:  "application idle during the flush: page hash, DEFLATE, dedup and the segment write do the work, flush order and COW are irrelevant, so a core change must not move it",
		mix:  corpus.Mixed,
		spec: stackSpec{compression: aickpt.CompressionFlate},
		// Half the usual region: DEFLATE runs at 40 MB/s a core here, and
		// a restore decodes every segment of the chain.
		pages:    regionPages / 2,
		epochs:   16,
		dirtyDiv: 1,
		restores: 3,
		app:      flateDedupBurst,
	},
	{
		name:     "tiers-failover",
		why:      "local directory + RS(4+2) peers + PFS directory with background compaction: drain read-back, tier stores and erasure encode and decode dominate, restores run healthy and then from shards",
		mix:      corpus.AllStencil,
		spec:     stackSpec{tiers: true, compaction: aickpt.CompactionPolicy{MaxChainDepth: 16}},
		pages:    regionPages,
		epochs:   20,
		dirtyDiv: 4,
		restores: 5,
		app:      tiersFailover,
	},
	{
		name:     "sparse-chain",
		why:      "hundreds of 2 MiB epochs: per-epoch fixed costs (selector build, manifest, two fsync publishes) dominate the write side and a many-segment fold the read side",
		mix:      corpus.AllStencil,
		spec:     stackSpec{},
		pages:    regionPages,
		epochs:   320,
		dirtyDiv: 32,
		restores: 5,
		app:      sparseChain,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// passConfig is what one pass over a workload needs to know.
type passConfig struct {
	def      *workloadDef
	seed     uint64
	seconds  int
	scale    int // divides the region; 1 outside the smoke test
	dir      string
	strategy aickpt.Strategy
	tr       *tracer // nil for the untraced pass
	setups   int
	// corrupt, when set, runs between the application loop and the first
	// restore; the planted-corruption test damages a segment there.
	corrupt func(dirs []string) error
}

// run is one pass in progress.
type run struct {
	passConfig
	pages  int
	epochs int
	corpus corpus.Corpus
	oracle *corpus.Oracle
	spec   stackSpec
	st     stack
	rt     *aickpt.Runtime
	region *aickpt.Region
	buf    []byte
	spin   uint64

	epoch     uint32   // checkpoints requested of the current runtime
	measured  []uint32 // the epochs that count, warm-up excluded
	measuring bool
	samples   map[string][]float64
	attempted int
	failed    int
	failures  []string

	// What the application loop left behind, read when it ends.
	appEnd      int64         // tracer time
	runtimeCPU  time.Duration // process CPU minus application-thread CPU over the loop
	loopBytes   int64         // dirty bytes the loop's checkpoints submitted
	totalBytes  int64         // the same plus the set-up checkpoint
	storedBytes int64         // bytes in the directories
	loopRSSMiB  float64       // the process's peak RSS
	dedupStored int
	dedupElided int

	host *hostIndex

	compaction  aickpt.CompactionResult
	restoreInfo map[string]restoreInfo // by restore metric: the phase's first restore
	loadChainMs float64                // traced pass only
}

// loopPhase keys the host-index samples of the application loop; the other
// phases are keyed by the metric they time.
const loopPhase = "loop"

func (r *run) add(metric string, v float64) { r.samples[metric] = append(r.samples[metric], v) }

// alias reports the restores behind metric `of` under a second name: on a
// single-tier stack the healthy restore is the restore.
func (r *run) alias(metric, of string) {
	r.samples[metric] = r.samples[of]
	r.host.samples[metric] = r.host.samples[of]
	r.restoreInfo[metric] = r.restoreInfo[of]
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writePage gives page p its next version. One write in 64 is recorded as
// a span when the pass is traced.
func (r *run) writePage(p int) {
	r.oracle.Versions[p]++
	r.rewritePage(p)
}

// rewritePage writes page p again with the content it already has.
func (r *run) rewritePage(p int) {
	r.corpus.Fill(r.buf, p, r.oracle.Versions[p])
	if r.tr != nil && p&63 == 0 {
		id := r.tr.begin(spRegionWrite, lyPagemem, 0, r.epoch, -1)
		r.region.Write(p*pageSize, r.buf)
		r.tr.finish(id, pageSize)
		return
	}
	r.region.Write(p*pageSize, r.buf)
}

// checkpoint requests a checkpoint, returns when the call does, and says
// when it started.
func (r *run) checkpoint() (start time.Time) {
	// Up to 32 host-index samples, spread evenly over the loop, each taken
	// when the previous flush is long over.
	if r.measuring && len(r.measured)%max(1, r.epochs/32) == 0 {
		r.host.sample(loopPhase)
	}
	r.epoch++
	r.attempted++
	if r.measuring {
		r.measured = append(r.measured, r.epoch)
	}
	start = time.Now()
	id := r.tr.begin(spCheckpoint, lyCore, 0, r.epoch, -1)
	r.rt.Checkpoint()
	r.tr.finish(id, 0)
	if call := time.Since(start); r.measuring {
		r.add("ckpt_call_us", float64(call)/float64(time.Microsecond))
	}
	return start
}

// checkpointAndWait is the blocking application's checkpoint: request,
// wait until sealed on the first tier, wait until drained to every tier.
// The application loses all of that time.
func (r *run) checkpointAndWait() {
	start := r.checkpoint()
	id := r.tr.begin(spWaitIdle, lyCore, 0, r.epoch, -1)
	r.rt.WaitIdle()
	r.tr.finish(id, 0)
	sealed := time.Since(start)
	id = r.tr.begin(spWaitDrained, lyMultilevel, 0, r.epoch, -1)
	drainErr := r.st.waitDrained()
	r.tr.finish(id, 0)
	drained := time.Since(start)
	if err := r.rt.Err(); err != nil {
		r.fail("checkpoint %d: %v", r.epoch, err)
	} else if drainErr != nil {
		r.fail("drain of checkpoint %d: %v", r.epoch, drainErr)
	}
	if r.measuring {
		r.add("l1_durable_ms", ms(sealed))
		r.add("all_tiers_durable_ms", ms(drained))
		r.add("app_cost_per_ckpt_ms", ms(drained))
	}
}

// setup builds the stack, allocates and first-touches the region and seals
// one full checkpoint, and returns how long that took.
func (r *run) setup() (time.Duration, error) {
	start := time.Now()
	var err error
	if r.tr != nil {
		r.st, err = newTracedStack(r.spec, r.tr)
	} else {
		r.st, err = newPublicStack(r.spec)
	}
	if err != nil {
		return 0, err
	}
	r.rt = r.st.runtime()
	r.region = r.rt.MallocProtected(r.pages * pageSize)
	r.oracle = corpus.NewOracle(r.corpus, r.pages)
	r.epoch, r.measured = 0, nil
	for p := 0; p < r.pages; p++ {
		r.writePage(p)
	}
	r.checkpoint()
	r.rt.WaitIdle()
	if err := r.rt.Err(); err != nil {
		return 0, fmt.Errorf("first checkpoint: %w", err)
	}
	return time.Since(start), nil
}

// teardown closes the stack and empties its directory, for the next
// set-up to start from nothing.
func (r *run) teardown() error {
	err := r.st.close()
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	return err
}

// restores times one phase of restores into samples[metric] and checks
// each image against the oracle, page by page.
func (r *run) restores(metric string) {
	size := r.pages * pageSize
	for i := 0; i < r.def.restores; i++ {
		// Without the collection the previous image's garbage makes a
		// restore's time depend on where the last one left the heap.
		runtime.GC()
		r.host.sample(metric)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.attempted++
		start := time.Now()
		image, info, err := r.st.restore(size)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		info.allocsPerPage = float64(after.Mallocs-before.Mallocs) / float64(r.pages)
		switch {
		case err != nil:
			r.fail("%s %d: %v", metric, i, err)
			continue
		case info.epoch != uint64(r.epoch):
			r.fail("%s %d: image is of checkpoint %d, newest sealed is %d", metric, i, info.epoch, r.epoch)
		default:
			if bad := r.oracle.Mismatches(image); bad > 0 {
				r.fail("%s %d: %d of %d pages differ from the oracle", metric, i, bad, r.pages)
			}
		}
		r.add(metric, float64(size)/1e6/took.Seconds())
		if i == 0 {
			r.restoreInfo[metric] = info
		}
	}
}

// compact forces a compaction pass and returns how long it took.
func (r *run) compact() time.Duration {
	r.attempted++
	start := time.Now()
	res, err := r.st.compact()
	if err != nil {
		r.fail("compaction: %v", err)
	}
	r.compaction = res
	return time.Since(start)
}

// verifyDirs runs the read-only integrity check over every directory.
func (r *run) verifyDirs(dirs []string) {
	for _, dir := range dirs {
		r.attempted++
		health, err := aickpt.Verify(dir)
		if err != nil {
			r.fail("verify %s: %v", dir, err)
			continue
		}
		for _, h := range health {
			if h.Damaged {
				r.fail("verify %s: %s is %s: %s", dir, h.Manifest, h.Status, h.Detail)
				break
			}
		}
	}
}

// pass runs one workload from set-up to the last restore. The goroutine is
// locked to its thread so that the thread's CPU time is the application's.
func pass(cfg passConfig) (*run, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := &run{
		passConfig:  cfg,
		pages:       cfg.def.pages / cfg.scale,
		epochs:      max(2, cfg.def.epochs*cfg.seconds/nominalSeconds),
		buf:         make([]byte, pageSize),
		samples:     map[string][]float64{},
		restoreInfo: map[string]restoreInfo{},
	}
	r.corpus = corpus.Corpus{Seed: cfg.seed, PageSize: pageSize, Mix: cfg.def.mix}
	var err error
	if r.host, err = newHostIndex(filepath.Dir(cfg.dir)); err != nil {
		return nil, err
	}
	r.spec = cfg.def.spec
	r.spec.dir, r.spec.strategy = cfg.dir, cfg.strategy
	r.spec.cowBuffer /= int64(cfg.scale)
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			if err := r.teardown(); err != nil {
				return nil, err
			}
		}
		r.host.sample("setup_s")
		took, err := r.setup()
		if err != nil {
			return nil, err
		}
		r.add("setup_s", took.Seconds())
	}
	// The files stay for the caller to look at and remove; the runtime's
	// counters stay readable after the close.
	defer r.st.close()
	if err := r.st.waitDrained(); err != nil {
		r.fail("drain of the first checkpoint: %v", err)
	}

	procCPU, appCPU := cpuTime(syscall.RUSAGE_SELF), cpuTime(syscall.RUSAGE_THREAD)
	r.def.app(r)
	r.runtimeCPU = (cpuTime(syscall.RUSAGE_SELF) - procCPU) - (cpuTime(syscall.RUSAGE_THREAD) - appCPU)
	r.appEnd = r.tr.now()
	r.loopRSSMiB = peakRSSMiB()
	for i, st := range r.rt.Stats() {
		r.totalBytes += st.BytesCommitted
		if i > 0 {
			r.loopBytes += st.BytesCommitted
		}
	}
	r.dedupStored, r.dedupElided = r.st.dedup()
	dirs := r.spec.dirs()
	if r.storedBytes, err = diskBytes(dirs); err != nil {
		return nil, err
	}
	if cfg.corrupt != nil {
		if err := cfg.corrupt(dirs); err != nil {
			return nil, err
		}
	}

	r.restores("restore_healthy_mb_s")
	r.host.sample("compact_s")
	r.add("compact_s", r.compact().Seconds())
	r.host.sample("compact_s")
	r.restores("restore_compacted_mb_s")
	r.verifyDirs(dirs)
	if r.tr != nil {
		if r.loadChainMs, err = loadChainReplay(r.spec.l1()); err != nil {
			return nil, err
		}
	}
	if r.spec.tiers {
		if err := r.st.degrade(); err != nil {
			return nil, err
		}
		r.restores("restore_mb_s")
	} else {
		r.alias("restore_mb_s", "restore_healthy_mb_s")
	}
	return r, r.host.err
}

// stencilRace is Fig 2 without the simulator: every iteration rewrites
// every page in a fixed seeded permutation (so the adaptive flush order is
// not address order) with a fixed amount of arithmetic per page, and a
// checkpoint is requested every fourth iteration without waiting for it.
func stencilRace(r *run) {
	const itersPerCkpt = 4
	perm := corpus.Perm(r.seed, 1, r.pages)
	iterate := func() time.Duration {
		start := time.Now()
		for _, p := range perm {
			r.compute()
			r.writePage(p)
		}
		return time.Since(start)
	}
	var intervals, quiet []float64
	for c := 0; c <= r.epochs; c++ {
		r.measuring = c > 0 // the first interval warms up
		start := r.checkpoint()
		var iters [itersPerCkpt]time.Duration
		for k := range iters {
			iters[k] = iterate()
		}
		if err := r.rt.Err(); err != nil {
			r.fail("checkpoint %d: %v", r.epoch, err)
		}
		if r.measuring {
			intervals = append(intervals, ms(time.Since(start)))
			// The flush is over by the third iteration, so the last two
			// are what an iteration costs with no checkpoint in flight.
			quiet = append(quiet, ms(iters[2]), ms(iters[3]))
		}
	}
	// The closing checkpoint seals the last iterations for the restores.
	// Nothing races it, so it is not a sample.
	r.measuring = false
	r.checkpoint()
	r.rt.WaitIdle()
	if err := r.rt.Err(); err != nil {
		r.fail("closing checkpoint: %v", err)
	}
	// Normalising by the run's own quiet iterations keeps a slow episode of
	// the host out of the figure: it slows both sides alike.
	base := itersPerCkpt * stats.Median(quiet)
	for _, iv := range intervals {
		r.add("app_cost_per_ckpt_ms", iv-base)
	}
	st := r.rt.Stats()
	for _, e := range r.measured {
		// The application does not wait, so the seal time comes from the
		// runtime: checkpoint request until the epoch is sealed.
		d := ms(st[e-1].Duration)
		r.add("l1_durable_ms", d)
		r.add("all_tiers_durable_ms", d)
	}
}

// compute is the application's work on one page: a dependent multiply-add
// chain of fixed length (about 8 µs here, 130 ms per iteration of the full
// region), whose result feeds back so it cannot be optimised away.
func (r *run) compute() {
	x := r.spin
	for i := 0; i < 6000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	r.spin = x
}

// flateDedupBurst rewrites every page each epoch, half of them (a seeded
// half) with the content they already have, then checkpoints and waits.
func flateDedupBurst(r *run) {
	for e := 0; e <= r.epochs; e++ {
		r.measuring = e > 0
		keep := corpus.Perm(r.seed, uint64(2+e), r.pages)
		for i, p := range keep {
			if i < r.pages/2 {
				r.rewritePage(p)
			} else {
				r.writePage(p)
			}
		}
		r.checkpointAndWait()
	}
}

// tiersFailover dirties a quarter of the region per epoch, a window that
// slides by half its width, and waits for every tier after each checkpoint.
//
// The background compactor is busy most of this loop, and how far it got
// when the loop ends is a matter of timing: left alone, the forced pass
// timed afterwards would first wait out a pass in flight (1.3 s or 3.2 s on
// the same code) and the restores would race its deletions. So the loop
// settles the chain itself: a forced pass that is not timed, then four more
// epochs, too few to trigger the compactor again. Every run then hands the
// restores and the timed pass a base plus four epochs.
func tiersFailover(r *run) {
	const settleEpochs = 4
	window := r.pages / r.def.dirtyDiv
	origin := corpus.Perm(r.seed, 3, r.pages)[0]
	for e := 0; e <= r.epochs+settleEpochs; e++ {
		r.measuring = e > 0 && e <= r.epochs
		if e == r.epochs+1 {
			r.compact()
		}
		for i := 0; i < window; i++ {
			r.writePage((origin + e*window/2 + i) % r.pages)
		}
		r.checkpointAndWait()
	}
}

// sparseChain dirties 1/32 of the region per epoch, seeded-random pages,
// and never compacts, so the chain grows by one small segment per epoch.
func sparseChain(r *run) {
	dirty := r.pages / r.def.dirtyDiv
	for e := 0; e <= r.epochs; e++ {
		r.measuring = e > 0
		for _, p := range corpus.Perm(r.seed, uint64(1000+e), r.pages)[:dirty] {
			r.writePage(p)
		}
		r.checkpointAndWait()
	}
}
