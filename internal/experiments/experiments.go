// Package experiments is the virtual-time simulator behind
// cmd/aickpt-bench: a table of scenarios (Scenarios) that regenerates every
// figure of the paper's evaluation (§4) — the synthetic-benchmark family
// (Figure 2a/2b/2c), CM1 weak scalability and COW sweep (Figures 3a/3b/4a)
// and MILC weak scalability and COW sweep (Figures 5/4b) — and answers the
// model questions about the storage stack (tiers, parallel, restore). Each
// scenario runs the same page-manager and storage code as the real-time
// library, inside the deterministic virtual-time kernel, against storage
// and network models calibrated to the paper's testbeds.
//
// The figures accept a memory-division factor ("scale"): Scale=1 is the
// paper's sizes (slow: tens of millions of simulated events), larger
// factors shrink every memory quantity proportionally — including the COW
// buffer — preserving the ratios that drive the checkpointing dynamics.
package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Scale presets.
const (
	// ScaleBench is large enough for the scorecard to tell the strategies
	// apart.
	ScaleBench = 16
	// ScaleTiny keeps unit tests fast; the golden files are pinned at it.
	ScaleTiny = 256
)

// PageSize is fixed at the operating-system page size used throughout the
// paper's evaluation.
const PageSize = 4096

// Strategies lists the three approaches compared throughout §4.
var Strategies = []core.Strategy{core.Adaptive, core.NoPattern, core.Sync}

// Run captures one simulated execution of a workload under one strategy.
type Run struct {
	Strategy core.Strategy
	// Runtime is the application makespan (all processes finished and
	// the final checkpoint drained).
	Runtime time.Duration
	// Baseline is the makespan with checkpointing disabled.
	Baseline time.Duration
	// AvgCkptTime is the paper's checkpointing-time metric: mean over
	// processes of the mean checkpoint duration, skipping the first
	// (full) checkpoint as in §4.4.1.
	AvgCkptTime time.Duration
	// Access-type counts, averaged per checkpoint across processes.
	AvgWaits   float64
	AvgCows    float64
	AvgAvoided float64
	AvgAfter   float64
	// Selector prediction scorecard, aggregated over every process and
	// epoch: HitRate is avoided/(waits+cows+avoided) — of the pages the
	// application touched while a checkpoint was live, the fraction the
	// selector had already flushed. RankCorrelation is the pair-weighted
	// footrule correlation between predicted flush order and actual
	// fault arrivals (1 = flushed exactly in fault order).
	HitRate         float64
	RankCorrelation float64
	// Epochs carries the instrumented process's flight-recorder records
	// (scorecards + lifecycle span trees) when the run was wired with a
	// Metrics hook; nil otherwise.
	Epochs []obs.EpochRecord
}

// Overhead is the increase in execution time versus baseline.
func (r Run) Overhead() time.Duration { return r.Runtime - r.Baseline }

// ReductionVsSync computes a COW-sweep datapoint of Figure 4: the
// percentage reduction in checkpointing overhead of an asynchronous run
// versus the sync run of the same configuration.
func ReductionVsSync(async, sync Run) float64 {
	syncOv := sync.Overhead().Seconds()
	if syncOv <= 0 {
		return 0
	}
	return (1 - async.Overhead().Seconds()/syncOv) * 100
}

// foldStats folds per-epoch manager statistics into a Run, skipping the
// first (full) checkpoint for the checkpointing-time metric, and
// aggregates the selector scorecard across every process and epoch.
func foldStats(run *Run, all [][]core.EpochStats) {
	var ckptSum time.Duration
	var ckptN int
	var wSum, cSum, aSum, fSum, n float64
	var cards []obs.Scorecard
	for _, stats := range all {
		for i, ep := range stats {
			if i > 0 { // skip the full checkpoint, as the paper does
				ckptSum += ep.Duration
				ckptN++
			}
			wSum += float64(ep.Waits)
			cSum += float64(ep.Cows)
			aSum += float64(ep.Avoided)
			fSum += float64(ep.After)
			cards = append(cards, ep.Scorecard())
			n++
		}
	}
	if ckptN > 0 {
		run.AvgCkptTime = ckptSum / time.Duration(ckptN)
	}
	if n > 0 {
		run.AvgWaits, run.AvgCows, run.AvgAvoided, run.AvgAfter = wSum/n, cSum/n, aSum/n, fSum/n
	}
	run.HitRate, run.RankCorrelation, _ = obs.FoldScorecards(cards)
}
