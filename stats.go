package aickpt

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// WriteStatsCSV renders per-checkpoint statistics as CSV, one row per
// checkpoint, for offline analysis of checkpointing behavior (the columns
// mirror the metrics of the paper's evaluation: dirty-set size, access-type
// classification, blocked time and checkpointing time).
func WriteStatsCSV(w io.Writer, stats []EpochStats) error {
	if _, err := fmt.Fprintln(w,
		"epoch,pages,bytes,waits,cows,avoided,after,wait_us,blocked_us,duration_us"); err != nil {
		return err
	}
	for _, s := range stats {
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Epoch, s.PagesCommitted, s.BytesCommitted,
			s.Waits, s.Cows, s.Avoided, s.After,
			s.WaitTime.Microseconds(), s.BlockedInCheckpoint.Microseconds(),
			s.Duration.Microseconds())
		if err != nil {
			return err
		}
	}
	return nil
}

// Summary condenses a run's checkpointing behavior: totals across epochs
// plus the aggregate classification mix. It answers "how much did
// checkpointing cost this run" in one value.
type Summary struct {
	Checkpoints    int
	PagesCommitted int
	BytesCommitted int64
	Waits          int
	Cows           int
	Avoided        int
	After          int
	// AppBlocked is the total time the application spent blocked on
	// checkpointing: inside Checkpoint calls plus inside page waits.
	AppBlocked  time.Duration
	LongestCkpt time.Duration

	// Selector prediction scorecard aggregates.

	// HitRate is the run-wide flushed-before-faulted hit rate:
	// AVOIDED / (WAIT + COW + AVOIDED) over every epoch.
	HitRate float64
	// CowAbsorbed counts the first writes absorbed by the copy-on-write
	// buffer instead of blocking (the scorecard's "near miss" class;
	// identical to Cows, named for the scorecard column).
	CowAbsorbed int
	// RankPairs counts the flushed-and-faulted page pairs entering the
	// rank correlation; RankCorrelation is the per-epoch footrule rank
	// correlation weighted by each epoch's pairs (1 = the selector
	// flushed in exactly fault order, ~0 = random, negative =
	// anti-correlated).
	RankPairs       int
	RankCorrelation float64

	// Drain-side and restore-side totals, sourced from the runtime's
	// metric snapshot (see SummarizeWithMetrics); zero when summarizing
	// from per-epoch stats alone, which cannot see the background drain
	// pipeline or a restore.
	EpochsDrained uint64
	DrainRetries  uint64
	DrainFailures uint64
	RestoreEpochs uint64
	RestorePages  uint64
}

// Summarize folds per-epoch statistics into a Summary. The drain- and
// restore-side fields stay zero: per-epoch stats only describe the
// commit-side pipeline. Use SummarizeWithMetrics to fill them from a
// runtime metric snapshot.
func Summarize(stats []EpochStats) Summary {
	var s Summary
	cards := make([]Scorecard, 0, len(stats))
	for _, ep := range stats {
		s.Checkpoints++
		s.PagesCommitted += ep.PagesCommitted
		s.BytesCommitted += ep.BytesCommitted
		s.Waits += ep.Waits
		s.Cows += ep.Cows
		s.Avoided += ep.Avoided
		s.After += ep.After
		s.AppBlocked += ep.BlockedInCheckpoint + ep.WaitTime
		if ep.Duration > s.LongestCkpt {
			s.LongestCkpt = ep.Duration
		}
		cards = append(cards, ep.Scorecard())
	}
	s.CowAbsorbed = s.Cows
	s.HitRate, s.RankCorrelation, s.RankPairs = obs.FoldScorecards(cards)
	return s
}

// SummarizeWithMetrics folds per-epoch statistics into a Summary and
// completes it with the drain-side and restore-side totals of a metric
// snapshot (Runtime.Metrics), which the per-epoch stats cannot observe.
func SummarizeWithMetrics(stats []EpochStats, snap MetricsSnapshot) Summary {
	s := Summarize(stats)
	s.EpochsDrained = snap.Counters["aickpt_multilevel_epochs_drained_total"]
	s.DrainRetries = snap.Counters["aickpt_multilevel_drain_retries_total"]
	s.DrainFailures = snap.Counters["aickpt_multilevel_drain_failures_total"]
	s.RestoreEpochs = snap.Counters["aickpt_multilevel_restore_epochs_total"]
	s.RestorePages = snap.Counters["aickpt_multilevel_restore_pages_total"]
	return s
}

// WriteSummaryCSV renders one run summary as a two-line CSV (header plus
// values), including the drain- and restore-side columns that
// WriteStatsCSV's per-epoch rows cannot carry.
func WriteSummaryCSV(w io.Writer, s Summary) error {
	if _, err := fmt.Fprintln(w,
		"checkpoints,pages,bytes,waits,cows,avoided,after,app_blocked_us,longest_ckpt_us,"+
			"epochs_drained,drain_retries,drain_failures,restore_epochs,restore_pages,"+
			"hit_rate,cow_absorbed,rank_corr"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%d,%.3f\n",
		s.Checkpoints, s.PagesCommitted, s.BytesCommitted,
		s.Waits, s.Cows, s.Avoided, s.After,
		s.AppBlocked.Microseconds(), s.LongestCkpt.Microseconds(),
		s.EpochsDrained, s.DrainRetries, s.DrainFailures,
		s.RestoreEpochs, s.RestorePages,
		s.HitRate, s.CowAbsorbed, s.RankCorrelation)
	return err
}
