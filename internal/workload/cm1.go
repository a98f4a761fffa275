package workload

import (
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/util"
)

// CM1 models one MPI process of the CM1 atmospheric simulation (§4.4): a
// stencil code over a fixed subdomain whose state lives in many allocatable
// field arrays. Each iteration recomputes the prognostic fields (touching
// them fully, array by array in a fixed physics-phase order that differs
// from allocation order), exchanges subdomain borders with neighbors and
// synchronizes. Diagnostic arrays are written only during initialization —
// they are the cold 328 MB of the paper's 400 MB / 728 MB split.
type CM1 struct {
	// WriteArrays is the number of prognostic arrays rewritten every
	// iteration; WritePages is the size of each in pages.
	WriteArrays int
	WritePages  int
	// ColdArrays/ColdPages describe the arrays only written at init.
	ColdArrays int
	ColdPages  int
	// Iterations and CheckpointEvery define the run length (the paper
	// fixes simulated time such that 3 checkpoints trigger).
	Iterations      int
	CheckpointEvery int
	// HaloBytes is the border volume sent per iteration.
	HaloBytes int64
	// DeviationP is the fraction of hot pages touched out-of-order at the
	// start of each iteration (boundary conditions, active microphysics
	// cells).
	DeviationP float64
	// Compute's Seed also draws the phase order.
	Compute
}

// CM1Proc is an instantiated CM1 process: its protected arrays plus hooks
// into the deployment.
type CM1Proc struct {
	Hooks
	cfg   CM1
	hot   []*pagemem.Region
	cold  []*pagemem.Region
	order []int // phase order over hot arrays
	t     *toucher
	env   sim.Env
}

// NewCM1Proc allocates the process's arrays in space (transparent capture:
// all of them are protected). Allocation order is array 0..n-1 hot, then
// cold, mirroring Fortran allocatables registered at startup.
func NewCM1Proc(env sim.Env, space *pagemem.Space, cfg CM1) *CM1Proc {
	p := &CM1Proc{cfg: cfg, env: env}
	for i := 0; i < cfg.WriteArrays; i++ {
		p.hot = append(p.hot, space.Alloc(cfg.WritePages*space.PageSize(), true))
	}
	for i := 0; i < cfg.ColdArrays; i++ {
		p.cold = append(p.cold, space.Alloc(cfg.ColdPages*space.PageSize(), true))
	}
	// The physics phases update arrays in a fixed order that is not the
	// allocation order (advection, pressure, turbulence, microphysics...):
	// this is what an address-ordered flush cannot predict.
	p.order = util.NewRNG(cfg.Seed ^ 0xc31).Perm(cfg.WriteArrays)
	p.t = cfg.toucher(env, cfg.WritePages)
	return p
}

// Run executes the process until completion.
func (p *CM1Proc) Run() {
	initialize(p.env, p.cfg.PageCost, p.hot, p.cold)
	for it := 1; it <= p.cfg.Iterations; it++ {
		p.t.deviate(p.cfg.DeviationP, p.cfg.Seed^(uint64(it)*0x9e3779b9), p.hot, p.cfg.WritePages)
		// Compute phase: rewrite each prognostic array, sweeping it in
		// ascending order, arrays in physics-phase order.
		for _, a := range p.order {
			for i := 0; i < p.cfg.WritePages; i++ {
				p.t.touch(p.hot[a], i)
			}
		}
		p.t.flush()
		// Border exchange and synchronization.
		p.exchange(p.cfg.HaloBytes)
		p.barrier()
		if p.cfg.CheckpointEvery > 0 && it%p.cfg.CheckpointEvery == 0 {
			p.checkpoint()
		}
	}
}
