package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// counterRef / gaugeRef / histRef are scrape-time descriptors: name is
// the full Prometheus family name, labels the rendered label set ("" or
// `{k="v"}`). They are built per scrape — scrapes are cold paths, the
// hot paths never touch them.
type counterRef struct {
	name, labels, help string
	c                  *Counter
}

type gaugeRef struct {
	name, labels, help string
	g                  *Gauge
}

type histRef struct {
	name, labels, help string
	h                  *Histogram
}

func (m *Metrics) counterRefs() []counterRef {
	refs := []counterRef{
		{"aickpt_core_checkpoints_total", "", "Checkpoint() calls", &m.CheckpointsTotal},
		{"aickpt_core_faults_total", `{type="cow"}`, "first writes by classification", &m.FaultsCow},
		{"aickpt_core_faults_total", `{type="wait"}`, "first writes by classification", &m.FaultsWait},
		{"aickpt_core_faults_total", `{type="avoided"}`, "first writes by classification", &m.FaultsAvoided},
		{"aickpt_core_faults_total", `{type="after"}`, "first writes by classification", &m.FaultsAfter},
		{"aickpt_core_commit_pages_total", "", "pages committed to the backend", &m.CommitPages},
		{"aickpt_core_commit_bytes_total", "", "bytes committed to the backend", &m.CommitBytes},
		{"aickpt_core_epochs_sealed_total", "", "epochs sealed by the committer", &m.EpochsSealed},
		{"aickpt_ckpt_raw_bytes_total", "", "raw page bytes entering the repository", &m.RecordRawBytes},
		{"aickpt_ckpt_encoded_bytes_total", "", "payload bytes after codec encoding", &m.RecordCodedBytes},
		{"aickpt_ckpt_dedup_hits_total", "", "page writes elided by dedup", &m.DedupHits},
		{"aickpt_ckpt_dedup_misses_total", "", "page writes stored physically", &m.DedupMisses},
		{"aickpt_ckpt_epochs_sealed_total", "", "repository epochs sealed", &m.EpochsSealedRepo},
		{"aickpt_multilevel_drain_retries_total", "", "failed tier stores that will retry", &m.DrainRetries},
		{"aickpt_multilevel_drain_failures_total", "", "epochs past a tier's retry budget", &m.DrainFailures},
		{"aickpt_multilevel_epochs_drained_total", "", "epochs retired from the drain pipeline", &m.EpochsDrained},
		{"aickpt_multilevel_restore_epochs_total", "", "epochs read during tier-aware restore", &m.RestoreEpochs},
		{"aickpt_multilevel_restore_pages_total", "", "pages read during tier-aware restore", &m.RestorePages},
		{"aickpt_scrub_segments_total", "", "chain entries verified by scrub passes", &m.ScrubSegments},
		{"aickpt_scrub_corrupt_total", "", "damaged chain entries found by scrub", &m.ScrubCorrupt},
		{"aickpt_scrub_repaired_total", "", "damaged entries rebuilt from a redundant tier", &m.ScrubRepaired},
		{"aickpt_scrub_unrepaired_total", "", "damaged entries no tier could rebuild", &m.ScrubUnrepaired},
		{"aickpt_multilevel_drain_requeues_total", "", "gave-up tier copies re-enqueued by scrub", &m.DrainRequeues},
		{"aickpt_compact_compactions_total", "", "compaction passes that committed a base", &m.Compactions},
		{"aickpt_compact_epochs_folded_total", "", "epochs folded into bases", &m.EpochsFolded},
		{"aickpt_compact_reclaimed_bytes_total", "", "garbage bytes collected", &m.ReclaimedBytes},
		{"aickpt_compact_skipped_passes_total", "", "passes that decided not to fold", &m.CompactSkips},
	}
	for w := range m.WorkerPages {
		if c := &m.WorkerPages[w]; w == 0 || c.Load() != 0 {
			refs = append(refs, counterRef{
				"aickpt_core_worker_pages_total",
				`{worker="` + strconv.Itoa(w) + `"}`,
				"pages committed per commit worker", c,
			})
		}
	}
	return refs
}

func (m *Metrics) gaugeRefs() []gaugeRef {
	refs := []gaugeRef{
		{"aickpt_core_cow_in_use", "", "COW slots currently held", &m.CowInUse},
		{"aickpt_multilevel_failed_tier_copies", "", "tier copies currently past their retry budget", &m.FailedTierCopies},
	}
	for t := range m.DrainQueueDepth {
		if g := &m.DrainQueueDepth[t]; t == 0 || g.Load() != 0 {
			refs = append(refs, gaugeRef{
				"aickpt_multilevel_drain_queue_depth",
				`{tier="` + strconv.Itoa(t+1) + `"}`,
				"epochs queued for promotion per lower tier", g,
			})
		}
	}
	return refs
}

func (m *Metrics) histRefs() []histRef {
	refs := []histRef{
		{"aickpt_core_checkpoint_blocked_ns", "", "app time blocked inside Checkpoint()", &m.CheckpointBlockedNs},
		{"aickpt_core_fault_ns", "", "fault-handler service latency", &m.FaultNs},
		{"aickpt_core_fault_wait_ns", "", "time blocked on in-flight pages", &m.FaultWaitNs},
		{"aickpt_core_commit_write_ns", "", "per-page backend write latency", &m.CommitWriteNs},
		{"aickpt_core_selector_build_ns", "", "adaptive flush-order build time", &m.SelectorBuildNs},
		{"aickpt_core_seal_ns", "", "EndEpoch latency", &m.SealNs},
		{"aickpt_core_selector_hit_rate_pm", "", "per-epoch flushed-before-faulted hit rate (per mille)", &m.SelectorHitRatePm},
		{"aickpt_core_selector_rank_corr_pm", "", "per-epoch footrule rank correlation (per mille, clamped at 0)", &m.SelectorRankCorrPm},
		{"aickpt_core_waited_queue_peak", "", "per-epoch peak waited-queue depth", &m.WaitedQueuePeak},
		{"aickpt_ckpt_record_write_ns", "", "repository WritePage latency", &m.RecordWriteNs},
		{"aickpt_ckpt_manifest_write_ns", "", "manifest write latency at seal", &m.ManifestWriteNs},
		{"aickpt_compact_fold_ns", "", "duration of compaction passes that folded", &m.FoldNs},
	}
	for t := range m.PromoteNs {
		if h := &m.PromoteNs[t]; t == 0 || h.Count() != 0 {
			refs = append(refs, histRef{
				"aickpt_multilevel_promote_ns",
				`{tier="` + strconv.Itoa(t+1) + `"}`,
				"per-tier promotion latency", h,
			})
		}
	}
	return refs
}

// WritePrometheus renders the metric set in the Prometheus text
// exposition format (version 0.0.4). Histograms use the fixed base-2
// bucket layout with cumulative counts and a trailing +Inf bucket.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	seen := map[string]bool{}
	header := func(name, help, typ string) {
		if !seen[name] {
			seen[name] = true
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		}
	}
	for _, r := range m.counterRefs() {
		header(r.name, r.help, "counter")
		fmt.Fprintf(bw, "%s%s %d\n", r.name, r.labels, r.c.Load())
	}
	for _, r := range m.gaugeRefs() {
		header(r.name, r.help, "gauge")
		fmt.Fprintf(bw, "%s%s %d\n", r.name, r.labels, r.g.Load())
	}
	for _, r := range m.histRefs() {
		header(r.name, r.help, "histogram")
		s := r.h.Snapshot()
		inner := r.labels
		if inner != "" {
			inner = "," + inner[1:len(inner)-1]
		}
		var cum uint64
		for _, b := range s.Buckets {
			cum += b.Count
			fmt.Fprintf(bw, "%s_bucket{le=\"%d\"%s} %d\n", r.name, b.Le, inner, cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"%s} %d\n", r.name, inner, s.Count)
		fmt.Fprintf(bw, "%s_sum%s %d\n", r.name, r.labels, s.Sum)
		fmt.Fprintf(bw, "%s_count%s %d\n", r.name, r.labels, s.Count)
	}
	return bw.Flush()
}

// Snapshot is a point-in-time copy of every metric, keyed by the full
// Prometheus family name (labels included for labeled families). It is
// the JSON payload of the debug server's /snapshot endpoint and the
// machine-readable form embedded into BENCH records.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// TakeSnapshot copies the metric set. Safe on a nil receiver (returns an
// empty snapshot) and never blocks writers: every read is one atomic
// load.
func (m *Metrics) TakeSnapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if m == nil {
		return s
	}
	for _, r := range m.counterRefs() {
		s.Counters[r.name+r.labels] = r.c.Load()
	}
	for _, r := range m.gaugeRefs() {
		s.Gauges[r.name+r.labels] = r.g.Load()
	}
	for _, r := range m.histRefs() {
		s.Histograms[r.name+r.labels] = r.h.Snapshot()
	}
	return s
}
