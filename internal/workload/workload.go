// Package workload models the applications of the paper's evaluation: the
// memory-intensive synthetic benchmark of §4.3, a CM1-like atmospheric
// stencil (§4.4) and a MILC-like lattice-QCD code (§4.5). The models
// preserve what matters to checkpointing — which pages are touched, in what
// order, how often, at what compute rate, and how much communication
// competes with checkpoint traffic — while the numerical content itself is
// irrelevant and elided (regions are phantom at simulation scale).
package workload

import (
	"time"

	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/util"
)

// Compute is the per-page compute model every workload shares.
type Compute struct {
	// PageCost is the mean compute time to transform one page.
	PageCost time.Duration
	// CostJitter is the relative spread of per-page cost (0.3 = +-30%).
	CostJitter float64
	// SpikeP is the fraction of the sweep inside slow stretches costing 4x.
	SpikeP float64
	// SpikeRun is the length in pages of each slow stretch (default 64).
	SpikeRun int
	// TouchBatch groups page touches per simulated time advance (default
	// 32).
	TouchBatch int
	// Seed drives the cost jitter and every other draw of the workload.
	Seed uint64
}

// Hooks connect one process to its deployment; a nil hook is skipped.
type Hooks struct {
	// Exchange sends a halo of the given size to the neighbors.
	Exchange func(bytes int64)
	// Barrier synchronizes with the other processes.
	Barrier func()
	// Checkpoint triggers a checkpoint (nil for baseline runs).
	Checkpoint func()
}

func (h *Hooks) exchange(bytes int64) {
	if h.Exchange != nil && bytes > 0 {
		h.Exchange(bytes)
	}
}

func (h *Hooks) barrier() {
	if h.Barrier != nil {
		h.Barrier()
	}
}

// checkpoint follows the paper's protocol: checkpoint, then barrier, then
// resume.
func (h *Hooks) checkpoint() {
	if h.Checkpoint != nil {
		h.Checkpoint()
		h.barrier()
	}
}

// toucher walks pages of a region, charging per-page compute cost in
// batches so virtual time advances between groups of writes without paying
// one kernel event per page. Costs are indexed by traversal position (not
// page address): slow stretches are a property of where the sweep is in
// time, which is what lets the flusher overtake the application regardless
// of the visit order.
type toucher struct {
	env   sim.Env
	costs []time.Duration // by traversal position, cycled
	pos   int
	batch int
	acc   time.Duration
	cnt   int
}

// toucher precomputes the costs of a sweep over pages: PageCost +- jitter
// (uniform in [1-jitter, 1+jitter]), plus slow stretches — runs of SpikeRun
// consecutive pages costing 4x, covering a SpikeP fraction of the sweep —
// which model the cache/TLB-unfriendly phases real sweeps exhibit. During a
// slow stretch the flusher overtakes the application, which is where
// AVOIDED accesses come from. Costs are deterministic in the seed.
func (c Compute) toucher(env sim.Env, pages int) *toucher {
	batch, spikeRun := c.TouchBatch, c.SpikeRun
	if batch <= 0 {
		batch = 32
	}
	if spikeRun <= 0 {
		spikeRun = 64
	}
	rng := util.NewRNG(c.Seed)
	costs := make([]time.Duration, pages)
	for i := range costs {
		f := 1.0
		if c.CostJitter > 0 {
			f += c.CostJitter * (2*rng.Float64() - 1)
		}
		costs[i] = time.Duration(float64(c.PageCost) * f)
	}
	if c.SpikeP > 0 {
		runs := int(c.SpikeP * float64(pages) / float64(spikeRun))
		if runs < 1 {
			runs = 1
		}
		for r := 0; r < runs; r++ {
			start := rng.Intn(pages)
			for i := start; i < start+spikeRun && i < pages; i++ {
				costs[i] *= 4
			}
		}
	}
	return &toucher{env: env, costs: costs, batch: batch}
}

func (t *toucher) touch(r *pagemem.Region, page int) {
	r.Touch(page)
	t.acc += t.costs[t.pos]
	t.pos++
	if t.pos == len(t.costs) {
		t.pos = 0
	}
	t.cnt++
	if t.cnt >= t.batch {
		t.flush()
	}
}

func (t *toucher) flush() {
	if t.acc > 0 {
		t.env.Sleep(t.acc)
	}
	t.acc, t.cnt = 0, 0
}

// deviate is the irregular pre-pass before a regular sweep: a p fraction of
// the pages of regions (pages each), touched in an order drawn from seed.
// It varies from sweep to sweep, so the previous epoch's access history
// mispredicts it — real codes are not perfectly periodic.
func (t *toucher) deviate(p float64, seed uint64, regions []*pagemem.Region, pages int) {
	rng := util.NewRNG(seed)
	n := int(p * float64(len(regions)*pages))
	for j := 0; j < n; j++ {
		t.touch(regions[rng.Intn(len(regions))], rng.Intn(pages))
	}
}

// initialize is the application's startup: every page of every region is
// written once, and the compute for all of them is charged in one advance.
func initialize(env sim.Env, pageCost time.Duration, groups ...[]*pagemem.Region) {
	total := 0
	for _, regions := range groups {
		for _, r := range regions {
			_, n := r.Pages()
			for i := 0; i < n; i++ {
				r.Touch(i)
			}
			total += n
		}
	}
	env.Sleep(pageCost * time.Duration(total))
}

// Pattern is the synthetic benchmark's page access order.
type Pattern int

const (
	// Ascending touches pages first to last.
	Ascending Pattern = iota
	// Random uses one fixed random permutation for all iterations.
	Random
	// Descending touches pages last to first.
	Descending
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Ascending:
		return "Ascending"
	case Random:
		return "Random"
	case Descending:
		return "Descending"
	default:
		return "unknown"
	}
}

// Synthetic is the §4.3 memory-intensive benchmark: a region of Pages
// pages, each iteration touching the full region byte-by-byte in the
// configured order, with a checkpoint every CheckpointEvery iterations.
type Synthetic struct {
	// Pages is the region size in pages (65536 at paper scale: 256 MB of
	// 4 KB pages).
	Pages int
	// Iterations is the total iteration count (39 in the paper).
	Iterations int
	// CheckpointEvery triggers a checkpoint after every N-th iteration
	// (10 in the paper, for 3 checkpoints).
	CheckpointEvery int
	// Pattern is the access order; Seed draws the Random permutation.
	Pattern Pattern
	Compute
}

// Order returns the per-iteration page visit order.
func (s Synthetic) Order() []int {
	order := make([]int, s.Pages)
	switch s.Pattern {
	case Ascending:
		for i := range order {
			order[i] = i
		}
	case Descending:
		for i := range order {
			order[i] = s.Pages - 1 - i
		}
	case Random:
		copy(order, util.NewRNG(s.Seed^0x5eed).Perm(s.Pages))
	}
	return order
}

// SyntheticProc is an instantiated synthetic benchmark: its protected
// region plus hooks into the deployment.
type SyntheticProc struct {
	Hooks
	cfg    Synthetic
	region *pagemem.Region
	env    sim.Env
}

// NewSyntheticProc allocates the benchmark's region in space.
func NewSyntheticProc(env sim.Env, space *pagemem.Space, cfg Synthetic) *SyntheticProc {
	return &SyntheticProc{cfg: cfg, env: env, region: space.Alloc(cfg.Pages*space.PageSize(), true)}
}

// Run executes the benchmark until completion.
func (p *SyntheticProc) Run() {
	order := p.cfg.Order()
	t := p.cfg.toucher(p.env, p.cfg.Pages)
	for it := 1; it <= p.cfg.Iterations; it++ {
		for _, page := range order {
			t.touch(p.region, page)
		}
		t.flush()
		if p.cfg.CheckpointEvery > 0 && it%p.cfg.CheckpointEvery == 0 {
			p.checkpoint()
		}
	}
}
