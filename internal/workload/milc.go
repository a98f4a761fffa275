package workload

import (
	"repro/internal/pagemem"
	"repro/internal/sim"
)

// MILC models one MPI process of the MIMD Lattice Computation benchmark
// (§4.5): a 4-D lattice QCD code whose dominant state is the per-direction
// gauge-link arrays plus conjugate-gradient work vectors. Configuration
// generation sweeps the lattice in even/odd (checkerboard) order — the
// classic staggered-fermion decomposition — several times per trajectory,
// and archives (checkpoints) after each trajectory. The even/odd temporal
// order is maximally unlike the address order, which is why access-pattern
// adaptation pays off even with no COW buffer (Figure 5).
type MILC struct {
	// Arrays is the number of large lattice arrays (gauge links per
	// direction, momenta, CG vectors); PagesPer their size in pages.
	Arrays   int
	PagesPer int
	// SweepsPerTrajectory is the number of update phases between
	// checkpoints. Each phase rewrites a rotating subset of the arrays
	// (gauge update, momentum refresh, CG solves touch different state),
	// so first writes spread across the whole trajectory rather than
	// bursting right after the checkpoint — the key difference from CM1's
	// access profile.
	SweepsPerTrajectory int
	// Trajectories is the number of trajectories (3 in the paper, one
	// checkpoint each).
	Trajectories int
	// HaloBytes is the nearest-neighbor exchange volume per sweep.
	HaloBytes int64
	// DeviationP is the fraction of pages touched out-of-order at the
	// start of each sweep (accept/reject and measurement phases vary
	// between trajectories).
	DeviationP float64
	Compute
}

// MILCProc is an instantiated MILC process.
type MILCProc struct {
	Hooks
	cfg    MILC
	arrays []*pagemem.Region
	t      *toucher
	env    sim.Env
}

// NewMILCProc allocates the lattice arrays (transparent capture).
func NewMILCProc(env sim.Env, space *pagemem.Space, cfg MILC) *MILCProc {
	p := &MILCProc{cfg: cfg, env: env}
	for i := 0; i < cfg.Arrays; i++ {
		p.arrays = append(p.arrays, space.Alloc(cfg.PagesPer*space.PageSize(), true))
	}
	p.t = cfg.toucher(env, cfg.PagesPer)
	return p
}

// sweep runs one update phase: arrays whose index is congruent to the
// phase (mod SweepsPerTrajectory) are rewritten in even/odd checkerboard
// order. Over one trajectory every array is rewritten exactly once.
func (p *MILCProc) sweep(sweepID uint64, phase int) {
	p.t.deviate(p.cfg.DeviationP, p.cfg.Seed^(sweepID*0x517cc1b7), p.arrays, p.cfg.PagesPer)
	for half := 0; half < 2; half++ {
		for a, r := range p.arrays {
			if a%p.cfg.SweepsPerTrajectory != phase {
				continue
			}
			for i := half; i < p.cfg.PagesPer; i += 2 {
				p.t.touch(r, i)
			}
		}
	}
	p.t.flush()
	p.exchange(p.cfg.HaloBytes)
	p.barrier()
}

// Run executes all trajectories.
func (p *MILCProc) Run() {
	initialize(p.env, p.cfg.PageCost, p.arrays)
	for tr := 0; tr < p.cfg.Trajectories; tr++ {
		for s := 0; s < p.cfg.SweepsPerTrajectory; s++ {
			p.sweep(uint64(tr*p.cfg.SweepsPerTrajectory+s+1), s)
		}
		p.checkpoint()
	}
}
