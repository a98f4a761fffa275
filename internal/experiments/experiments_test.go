package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The experiment tests run at tiny scale and assert the orderings the paper
// reports, not absolute values.

func find2(rows []Fig2Row, p workload.Pattern, s core.Strategy) Fig2Row {
	for _, r := range rows {
		if r.Pattern == p && r.Strategy == s {
			return r
		}
	}
	panic("row not found")
}

func TestFig2Orderings(t *testing.T) {
	rows := Fig2(16)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, p := range []workload.Pattern{workload.Ascending, workload.Random, workload.Descending} {
		ours := find2(rows, p, core.Adaptive)
		np := find2(rows, p, core.NoPattern)
		sync := find2(rows, p, core.Sync)
		// Sync is the worst for every pattern.
		if !(sync.OverheadSec > ours.OverheadSec && sync.OverheadSec > np.OverheadSec) {
			t.Errorf("%v: sync (%.3f) not worst (ours %.3f, np %.3f)",
				p, sync.OverheadSec, ours.OverheadSec, np.OverheadSec)
		}
		if ours.OverheadSec > np.OverheadSec*1.05 {
			t.Errorf("%v: ours (%.3f) worse than no-pattern (%.3f)", p, ours.OverheadSec, np.OverheadSec)
		}
	}
	// Pattern adaptation pays off for Random and Descending.
	for _, p := range []workload.Pattern{workload.Random, workload.Descending} {
		ours := find2(rows, p, core.Adaptive)
		np := find2(rows, p, core.NoPattern)
		if ours.OverheadSec >= np.OverheadSec {
			t.Errorf("%v: ours (%.3f) should beat no-pattern (%.3f)", p, ours.OverheadSec, np.OverheadSec)
		}
		if ours.Waits >= np.Waits {
			t.Errorf("%v: ours waits (%.0f) should be below no-pattern (%.0f)", p, ours.Waits, np.Waits)
		}
		if ours.Avoided <= np.Avoided {
			t.Errorf("%v: ours avoided (%.0f) should exceed no-pattern (%.0f)", p, ours.Avoided, np.Avoided)
		}
	}
	// Sync's overhead must be pattern-independent.
	sa := find2(rows, workload.Ascending, core.Sync).OverheadSec
	sd := find2(rows, workload.Descending, core.Sync).OverheadSec
	if diff := sa - sd; diff > 0.05*sa || diff < -0.05*sa {
		t.Errorf("sync overhead pattern-dependent: %.3f vs %.3f", sa, sd)
	}
}

func TestFig2Deterministic(t *testing.T) {
	a := Fig2(ScaleTiny)
	b := Fig2(ScaleTiny)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFig3Orderings(t *testing.T) {
	rows := weakScaling(128, CM1, []int{1, 4})
	byProc := map[int]map[core.Strategy]ScalingRow{}
	for _, r := range rows {
		if byProc[r.Procs] == nil {
			byProc[r.Procs] = map[core.Strategy]ScalingRow{}
		}
		byProc[r.Procs][r.Strategy] = r
	}
	for procs, m := range byProc {
		if m[core.Sync].OverheadSec <= m[core.Adaptive].OverheadSec {
			t.Errorf("procs=%d: sync (%.2f) should exceed ours (%.2f)",
				procs, m[core.Sync].OverheadSec, m[core.Adaptive].OverheadSec)
		}
		if m[core.NoPattern].OverheadSec < m[core.Adaptive].OverheadSec*0.95 {
			t.Errorf("procs=%d: no-pattern (%.2f) should not beat ours (%.2f)",
				procs, m[core.NoPattern].OverheadSec, m[core.Adaptive].OverheadSec)
		}
	}
}

func TestFig5AndFig4bOrderings(t *testing.T) {
	rows := weakScaling(1024, MILC, []int{10})
	var ours, np, sync ScalingRow
	for _, r := range rows {
		switch r.Strategy {
		case core.Adaptive:
			ours = r
		case core.NoPattern:
			np = r
		case core.Sync:
			sync = r
		}
	}
	if !(ours.OverheadSec <= np.OverheadSec && np.OverheadSec < sync.OverheadSec) {
		t.Errorf("fig5 ordering violated: ours %.2f, np %.2f, sync %.2f",
			ours.OverheadSec, np.OverheadSec, sync.OverheadSec)
	}
	rows4 := cowSweep(1024, MILC, 10, []int{0, 256})
	// The reduction must grow (or at least not shrink) with the buffer.
	var oursSmall, oursBig float64
	for _, r := range rows4 {
		if r.Strategy == core.Adaptive && r.CowBufferMB == 0 {
			oursSmall = r.ReductionPct
		}
		if r.Strategy == core.Adaptive && r.CowBufferMB == 256 {
			oursBig = r.ReductionPct
		}
	}
	if oursBig < oursSmall-5 {
		t.Errorf("fig4b: reduction shrank with bigger COW buffer: %.1f -> %.1f", oursSmall, oursBig)
	}
}

func TestRenderers(t *testing.T) {
	var sb strings.Builder
	RenderFig2(&sb, []Fig2Row{{Pattern: workload.Random, Strategy: core.Adaptive, OverheadSec: 1.5}})
	RenderFig3(&sb, []ScalingRow{{Procs: 4, Strategy: core.Sync, AvgCkptTimeSec: 2}})
	RenderFig4(&sb, "Figure 4(a)", []Fig4Row{{CowBufferMB: 16, Strategy: core.NoPattern, ReductionPct: 40}})
	RenderFig5(&sb, []ScalingRow{{Procs: 10, Strategy: core.Adaptive, OverheadSec: 3}})
	out := sb.String()
	for _, want := range []string{"Random", "our-approach", "sync", "async-no-pattern", "Figure 4(a)", "Figure 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

// TestScorecardDistinguishesStrategies asserts that the selector
// prediction scorecard separates the adaptive selector from the
// ascending (no-pattern) flush order. On a descending workload the
// ascending order is maximally wrong: the adaptive selector must win on
// hit rate (more faults landing on already-flushed pages) and show a
// strongly positive rank correlation where ascending goes negative.
func TestScorecardDistinguishesStrategies(t *testing.T) {
	d := Synthetic(ScaleBench, workload.Descending)
	ours := Simulate(d, core.Adaptive, true)
	np := Simulate(d, core.NoPattern, true)
	if ours.HitRate <= np.HitRate {
		t.Errorf("descending: adaptive hit rate %.3f should exceed ascending %.3f", ours.HitRate, np.HitRate)
	}
	if ours.RankCorrelation < 0.8 {
		t.Errorf("adaptive rank correlation = %.3f, want strongly positive (selector predicts fault order)", ours.RankCorrelation)
	}
	if np.RankCorrelation > 0.2 {
		t.Errorf("ascending-on-descending rank correlation = %.3f, want near zero or negative", np.RankCorrelation)
	}
}

// TestCM1ScorecardSelectorSignal runs the CM1 study with the flight
// recorder attached: the adaptive selector's rank correlation must beat
// the ascending order's (it flushes in predicted fault order), both
// strategies must see a live scorecard (nonzero overlapping faults), and
// the instrumented run must yield per-epoch records with both a
// scorecard and a well-formed span tree.
func TestCM1ScorecardSelectorSignal(t *testing.T) {
	d := CM1(ScaleTiny, 2)
	d.Metrics = spanMetrics
	ours := Simulate(d, core.Adaptive, true)
	np := Simulate(d, core.NoPattern, true)
	if ours.RankCorrelation <= np.RankCorrelation || ours.RankCorrelation <= 0 {
		t.Errorf("adaptive rank correlation %.3f should be positive and exceed ascending %.3f",
			ours.RankCorrelation, np.RankCorrelation)
	}
	if ours.HitRate <= 0 || np.HitRate <= 0 {
		t.Errorf("hit rates must be nonzero with overlapping faults: ours %.3f, np %.3f",
			ours.HitRate, np.HitRate)
	}
	checkEpochRecords(t, ours.Epochs)
}

// spanMetrics is a Deployment.Metrics hook that keeps span trees.
func spanMetrics(now func() time.Duration) *obs.Metrics {
	m := obs.New(now)
	m.Spans = obs.NewSpanLog(64)
	return m
}

// checkEpochRecords asserts an instrumented run yielded per-epoch records
// with both a scorecard and a well-formed span tree.
func checkEpochRecords(t *testing.T, epochs []obs.EpochRecord) {
	t.Helper()
	if len(epochs) == 0 {
		t.Fatal("instrumented run produced no epoch records")
	}
	for _, r := range epochs {
		if r.Scorecard == nil {
			t.Errorf("epoch %d record has no scorecard", r.Epoch)
			continue
		}
		if r.Spans == nil || r.Spans.Kind != "epoch" || len(r.Spans.Children) == 0 {
			t.Errorf("epoch %d record has a malformed span tree: %+v", r.Epoch, r.Spans)
		}
		if r.Bounding == "" || r.TotalNs <= 0 {
			t.Errorf("epoch %d record lacks a critical path: %+v", r.Epoch, r)
		}
	}
}

// TestSimulateEveryDeployment runs each constructor at ScaleTiny with its
// fewest processes: a baseline run carries no checkpoint stats, two runs
// are equal, and a Metrics hook yields epoch records for every workload.
func TestSimulateEveryDeployment(t *testing.T) {
	for _, d := range []Deployment{
		Synthetic(ScaleTiny, workload.Random),
		CM1(ScaleTiny, 1),
		MILC(ScaleTiny, 10),
	} {
		t.Run(d.Name, func(t *testing.T) {
			d.Metrics = spanMetrics
			base := Simulate(d, core.Adaptive, false)
			if base.Runtime <= 0 || !reflect.DeepEqual(base, Run{Strategy: core.Adaptive, Runtime: base.Runtime}) {
				t.Errorf("baseline carries checkpoint stats: %+v", base)
			}
			run := Simulate(d, core.Adaptive, true)
			if again := Simulate(d, core.Adaptive, true); !reflect.DeepEqual(run, again) {
				t.Errorf("two runs differ:\n%+v\n%+v", run, again)
			}
			if run.AvgCkptTime <= 0 || run.Runtime <= base.Runtime {
				t.Errorf("checkpointed run shows no checkpoint cost: %+v vs baseline %v", run, base.Runtime)
			}
			checkEpochRecords(t, run.Epochs)
		})
	}
}

func TestReductionVsSync(t *testing.T) {
	sync := Run{Runtime: 20e9, Baseline: 10e9} // overhead 10s
	async := Run{Runtime: 14e9, Baseline: 10e9}
	if got := ReductionVsSync(async, sync); got != 60 {
		t.Errorf("reduction = %v, want 60", got)
	}
	if got := ReductionVsSync(async, Run{Runtime: 10e9, Baseline: 10e9}); got != 0 {
		t.Errorf("degenerate sync overhead: got %v", got)
	}
}
