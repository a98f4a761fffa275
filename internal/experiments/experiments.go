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
// Every figure is one Deployment (Synthetic, CM1 or MILC) run by Simulate
// under each strategy and without checkpointing. The figures accept a
// memory-division factor ("scale"): Scale=1 is the paper's sizes (slow:
// tens of millions of simulated events), larger factors shrink every
// memory quantity proportionally — including the COW buffer — preserving
// the ratios that drive the checkpointing dynamics.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/workload"
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

// The write trap's costs, charged in virtual time by every page manager
// Simulate builds: one mprotect fault plus SIGSEGV-handler round trip, and
// one page copy into the COW buffer. Both are picked by hand, not measured
// on a host.
const (
	faultCost   = 4 * time.Microsecond
	cowCopyCost = 1 * time.Microsecond
)

// gigabitNIC is the Gigabit Ethernet interface of both testbeds.
var gigabitNIC = netsim.LinkConfig{BytesPerSec: cluster.GigabitBandwidth, Latency: cluster.GigabitLatency}

// Strategies lists the three approaches compared throughout §4.
var Strategies = []core.Strategy{core.Adaptive, core.NoPattern, core.Sync}

// Deployment is one experiment of §4: Procs application processes, PerNode
// to a node, each with its own page manager, over shared storage and
// network models.
type Deployment struct {
	// Name prefixes the names of the processes and their managers.
	Name string
	// Procs is the process count, a multiple of PerNode.
	Procs, PerNode int
	// Node is every node's NIC and disk; PFS, when non-nil, adds a
	// parallel file system shared by all nodes and receives every
	// checkpoint, which otherwise goes to the process's node-local disk.
	Node cluster.NodeSpec
	PFS  *cluster.PFSSpec
	// CowSlots is each manager's COW buffer in pages.
	CowSlots int
	// Proc allocates process i's memory in space and returns its body and
	// the hooks Simulate connects to the deployment.
	Proc func(env sim.Env, space *pagemem.Space, i int) (run func(), hooks *workload.Hooks)
	// NoWaitedHint and NoLiveCowPriority ablate Algorithm 4's priority
	// tiers in every page manager (see core.Config).
	NoWaitedHint, NoLiveCowPriority bool
	// Metrics, when non-nil, is called with the run's virtual clock and
	// must return the obs.Metrics to attach to process 0's page manager —
	// instrumenting one representative process keeps the flight
	// recorder's epoch attribution unambiguous. Run.Epochs then carries
	// that process's scorecards and lifecycle span trees.
	Metrics func(now func() time.Duration) *obs.Metrics
}

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
	// (scorecards + lifecycle span trees) when the deployment has a
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

// Simulate runs d under strategy in a fresh virtual-time kernel.
// withCkpt=false builds no page manager and gives the no-checkpoint
// baseline. Each process allocates its memory before its manager is built,
// and the run ends when every process has finished and drained its last
// checkpoint.
func Simulate(d Deployment, strategy core.Strategy, withCkpt bool) Run {
	if d.Procs%d.PerNode != 0 {
		panic(fmt.Sprintf("experiments: %s process count %d is not a multiple of %d procs/node", d.Name, d.Procs, d.PerNode))
	}
	k := sim.NewKernel()
	cd := cluster.NewDeployment(k, d.Procs/d.PerNode, d.Node, d.PFS)
	bar := cluster.NewBarrier(k, d.Procs)
	wg := sim.NewWaitGroup(k)
	managers := make([]*core.Manager, d.Procs)
	var met *obs.Metrics
	if d.Metrics != nil && withCkpt {
		met = d.Metrics(k.Now)
	}
	store := cd.LocalBackend
	if d.PFS != nil {
		store = cd.PFSBackend
	}

	for i := range d.Procs {
		node := i / d.PerNode
		space := pagemem.NewSpace(PageSize)
		run, hooks := d.Proc(k, space, i)
		hooks.Exchange = func(b int64) { cd.Exchange(node, b) }
		hooks.Barrier = bar.Wait
		if withCkpt {
			cfg := core.Config{
				Env: k, Space: space, Store: store(node),
				Strategy: strategy, CowSlots: d.CowSlots,
				FaultCost: faultCost, CowCopyCost: cowCopyCost,
				NoWaitedHint: d.NoWaitedHint, NoLiveCowPriority: d.NoLiveCowPriority,
				Name: fmt.Sprintf("%s-%d", d.Name, i),
			}
			if i == 0 {
				cfg.Metrics = met
			}
			managers[i] = core.NewManager(cfg)
			hooks.Checkpoint = managers[i].Checkpoint
		}
		wg.Add(1)
		k.Go(fmt.Sprintf("%s-proc%d", d.Name, i), func() {
			run()
			if managers[i] != nil {
				managers[i].WaitIdle()
			}
			wg.Done()
		})
	}
	var makespan time.Duration
	k.Go("driver", func() {
		wg.Wait()
		makespan = k.Now()
		for _, m := range managers {
			if m != nil {
				m.Close()
			}
		}
	})
	if err := k.Run(); err != nil {
		panic("experiments: " + d.Name + " run failed: " + err.Error())
	}

	run := Run{Strategy: strategy, Runtime: makespan}
	if !withCkpt {
		return run
	}
	// Fold every process's epochs, skipping the first (full) checkpoint for
	// the checkpointing-time metric, as the paper does.
	var ckptSum time.Duration
	var ckptN int
	var wSum, cSum, aSum, fSum, n float64
	var cards []obs.Scorecard
	for _, m := range managers {
		for i, ep := range m.Stats() {
			if i > 0 {
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
	if met != nil {
		var spans []obs.Span
		if met.Spans != nil {
			spans = met.Spans.Snapshot()
		}
		run.Epochs = obs.BuildEpochRecords(managers[0].Scorecards(), spans)
	}
	return run
}

// ScalingRow is one process-count datapoint of a weak-scaling figure:
// Figures 3(a)/3(b) for CM1 and Figure 5 for MILC.
type ScalingRow struct {
	Procs    int
	Strategy core.Strategy
	// AvgCkptTimeSec: Figure 3(a); Figure 5's should stay roughly
	// constant (~210 s at scale 1).
	AvgCkptTimeSec float64
	// OverheadSec: Figures 3(b) and 5, increase vs baseline.
	OverheadSec float64
	Waits       float64
}

// everyStrategy runs d without checkpointing, then under each of
// Strategies against that baseline.
func everyStrategy(d Deployment) []Run {
	base := Simulate(d, core.Sync, false).Runtime
	runs := make([]Run, len(Strategies))
	for i, strategy := range Strategies {
		runs[i] = Simulate(d, strategy, true)
		runs[i].Baseline = base
	}
	return runs
}

// weakScaling runs deployment(scale, procs) under every strategy for every
// process count.
func weakScaling(scale int, deployment func(scale, procs int) Deployment, procCounts []int) []ScalingRow {
	var rows []ScalingRow
	for _, procs := range procCounts {
		for _, run := range everyStrategy(deployment(scale, procs)) {
			rows = append(rows, ScalingRow{
				Procs:          procs,
				Strategy:       run.Strategy,
				AvgCkptTimeSec: run.AvgCkptTime.Seconds(),
				OverheadSec:    run.Overhead().Seconds(),
				Waits:          run.AvgWaits,
			})
		}
	}
	return rows
}

// Fig4Row is one COW-buffer-size datapoint of Figure 4.
type Fig4Row struct {
	CowBufferMB int
	Strategy    core.Strategy
	// ReductionPct is the reduction in checkpointing overhead vs sync.
	ReductionPct float64
}

// cowSweep regenerates a panel of Figure 4: deployment(scale, procs) with
// its COW buffer swept over cowMBs (paper-scale megabytes).
func cowSweep(scale int, deployment func(scale, procs int) Deployment, procs int, cowMBs []int) []Fig4Row {
	var rows []Fig4Row
	d := deployment(scale, procs)
	base := Simulate(d, core.Sync, false).Runtime
	syncRun := Simulate(d, core.Sync, true)
	syncRun.Baseline = base
	for _, mb := range cowMBs {
		d.CowSlots = mb << 20 / PageSize / scale
		for _, strategy := range []core.Strategy{core.Adaptive, core.NoPattern} {
			run := Simulate(d, strategy, true)
			run.Baseline = base
			rows = append(rows, Fig4Row{
				CowBufferMB:  mb,
				Strategy:     strategy,
				ReductionPct: ReductionVsSync(run, syncRun),
			})
		}
	}
	return rows
}
