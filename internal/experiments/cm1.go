package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CM1 is the §4.4 CM1 study on the Grid'5000 deployment, shrunk by scale:
// one process per node, checkpoints to a PVFS deployment on 10 storage
// nodes, Gigabit Ethernet everywhere. Per process, 400 MB change per epoch
// out of 728 MB allocated (at scale 1).
func CM1(scale, procs int) Deployment {
	scale = max(scale, 1)
	// 400 MB hot state split over 16 prognostic arrays; 328 MB cold.
	hotPages := 102400 / scale / 16
	coldPages := 83968 / scale / 8
	wl := workload.CM1{
		WriteArrays:     16,
		WritePages:      hotPages,
		ColdArrays:      8,
		ColdPages:       coldPages,
		Iterations:      33,
		CheckpointEvery: 10,      // 3 checkpoints, like the 50 s cadence
		HaloBytes:       1 << 20, // ~1 MB of borders per iteration
		DeviationP:      0.01,
		Compute: workload.Compute{
			PageCost:   100 * time.Microsecond,
			CostJitter: 0.3,
			SpikeP:     0.08,
			SpikeRun:   64 / min(scale, 16),
			TouchBatch: 32,
			Seed:       7,
		},
	}
	return Deployment{
		Name:    "cm1",
		Procs:   procs,
		PerNode: 1,
		Node:    cluster.NodeSpec{NIC: gigabitNIC},
		PFS: &cluster.PFSSpec{
			Servers:         10,
			ServerBandwidth: cluster.RennesDiskBandwidth,
			PerRequest:      80 * time.Microsecond, // PVFS small-write cost
		},
		CowSlots: 4096 / scale, // 16 MB COW buffer
		Proc: func(env sim.Env, space *pagemem.Space, i int) (func(), *workload.Hooks) {
			wl := wl
			wl.Seed += uint64(i) * 101
			p := workload.NewCM1Proc(env, space, wl)
			return p.Run, &p.Hooks
		},
	}
}
