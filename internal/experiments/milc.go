package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MILC is the §4.5 MILC study on the Shamrock deployment, shrunk by scale:
// 10 processes per node, checkpoints to the node-local disk shared by all
// ten. Per process, ~830 MB change per trajectory out of 868 MB (scale 1).
// The COW buffer is deactivated, as in §4.5.1.
func MILC(scale, procs int) Deployment {
	scale = max(scale, 1)
	// ~830 MB hot lattice state over 10 arrays (gauge links x4, momenta,
	// CG vectors...). 212k pages at scale 1.
	wl := workload.MILC{
		Arrays:              10,
		PagesPer:            212480 / scale / 10,
		SweepsPerTrajectory: 4,
		Trajectories:        3,
		HaloBytes:           2 << 20,
		DeviationP:          0.02,
		Compute: workload.Compute{
			PageCost:   1300 * time.Microsecond,
			CostJitter: 0.3,
			SpikeP:     0.08,
			SpikeRun:   64 / min(scale, 16),
			TouchBatch: 32,
			Seed:       11,
		},
	}
	return Deployment{
		Name:    "milc",
		Procs:   procs,
		PerNode: 10,
		Node: cluster.NodeSpec{
			NIC: gigabitNIC,
			// Effective streaming write bandwidth of the Shamrock HDDs
			// under 10 concurrent writers.
			Disk: netsim.LinkConfig{BytesPerSec: 40e6, PerMessage: 10 * time.Microsecond},
		},
		Proc: func(env sim.Env, space *pagemem.Space, i int) (func(), *workload.Hooks) {
			wl := wl
			wl.Seed += uint64(i) * 131
			p := workload.NewMILCProc(env, space, wl)
			return p.Run, &p.Hooks
		},
	}
}
