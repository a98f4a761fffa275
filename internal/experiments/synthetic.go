package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Synthetic is the §4.3 benchmark on one Grid'5000 node, shrunk by scale.
// It follows the paper: a 256 MB region of 4 KB pages touched fully per
// iteration, 39 iterations, a checkpoint every 10, a 16 MB COW buffer,
// checkpoints on the node-local ~55 MB/s disk.
func Synthetic(scale int, pattern workload.Pattern) Deployment {
	scale = max(scale, 1)
	wl := workload.Synthetic{
		Pages:           65536 / scale, // 256 MB at scale 1
		Iterations:      39,
		CheckpointEvery: 10,
		Pattern:         pattern,
		Compute: workload.Compute{
			// ~55 MB/s byte-by-byte increment loop: 75 us per 4 KB page,
			// comparable to the disk's per-page flush time.
			PageCost:   45 * time.Microsecond,
			CostJitter: 0.3,
			SpikeP:     0.08,
			TouchBatch: 32,
			Seed:       42,
		},
	}
	return Deployment{
		Name:    "synthetic",
		Procs:   1,
		PerNode: 1,
		// Local SATA disk, ~55 MB/s (4 KB page ~= 73 us) and a small
		// per-request cost.
		Node: cluster.NodeSpec{Disk: netsim.LinkConfig{
			BytesPerSec: cluster.RennesDiskBandwidth,
			PerMessage:  5 * time.Microsecond,
		}},
		CowSlots: 4096 / scale, // 16 MB COW buffer at scale 1
		Proc: func(env sim.Env, space *pagemem.Space, _ int) (func(), *workload.Hooks) {
			p := workload.NewSyntheticProc(env, space, wl)
			return p.Run, &p.Hooks
		},
	}
}

// Fig2Row is one (pattern, approach) cell of Figures 2(a)-(c).
type Fig2Row struct {
	Pattern  workload.Pattern
	Strategy core.Strategy
	// OverheadSec: Figure 2(a), increase in execution time vs baseline.
	OverheadSec float64
	// Waits: Figure 2(b), pages that triggered WAIT (mean per ckpt).
	Waits float64
	// Avoided: Figure 2(c), pages that triggered AVOIDED (mean per ckpt).
	Avoided float64
	// Cows and After complete the access-type breakdown.
	Cows  float64
	After float64
}

// Fig2 regenerates Figures 2(a), 2(b) and 2(c): the three approaches under
// the three access patterns.
func Fig2(scale int) []Fig2Row {
	var rows []Fig2Row
	for _, pattern := range []workload.Pattern{workload.Ascending, workload.Random, workload.Descending} {
		for _, run := range everyStrategy(Synthetic(scale, pattern)) {
			rows = append(rows, Fig2Row{
				Pattern:     pattern,
				Strategy:    run.Strategy,
				OverheadSec: run.Overhead().Seconds(),
				Waits:       run.AvgWaits,
				Avoided:     run.AvgAvoided,
				Cows:        run.AvgCows,
				After:       run.AvgAfter,
			})
		}
	}
	return rows
}
