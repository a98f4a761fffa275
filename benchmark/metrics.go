package main

import (
	"math"

	"repro/benchmark/stats"
)

// metricDef names a metric. BENCHMARK.json lists the same names, units,
// directions and bounds; TestBenchmarkJSONMatchesTables keeps the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Layer
	// metrics explain, they do not gate, and carry none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the figures an application or an operator sees. Each is
// defined on every workload; README.md says which workload each is for.
// The bounds come from the two run sets recorded in README.md: the 25 % the
// contract allows at most for the timings, whose run-to-run spread reaches
// 20 % on this host even at nominal host speed, less for bytes and memory.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"app_cost_per_ckpt_ms", "ms", lower, 0.25},
	{"ckpt_call_us", "us", lower, 0.25},
	{"l1_durable_ms", "ms", lower, 0.25},
	{"all_tiers_durable_ms", "ms", lower, 0.25},
	{"cpu_s_per_gib", "s/GiB", lower, 0.25},
	{"stored_bytes_per_dirty_byte", "B/B", lower, 0.05},
	{"restore_mb_s", "MB/s", higher, 0.25},
	{"restore_healthy_mb_s", "MB/s", higher, 0.25},
	{"restore_compacted_mb_s", "MB/s", higher, 0.25},
	{"compact_s", "s", lower, 0.25},
	{"peak_rss_mib", "MiB", lower, 0.15},
	{"ok_share", "share", higher, 0.001},
}

// perLayer are the traced pass's figures, named layer.metric.
var perLayer = []metricDef{
	{Name: "pagemem.write_unprotected_ns", Unit: "ns", Better: lower},
	{Name: "pagemem.first_write_ns", Unit: "ns", Better: lower},

	{Name: "core.waits_per_ckpt", Unit: "count", Better: lower},
	{Name: "core.cows_per_ckpt", Unit: "count", Better: lower},
	{Name: "core.avoided_per_ckpt", Unit: "count", Better: higher},
	{Name: "core.after_per_ckpt", Unit: "count", Better: higher},
	{Name: "core.wait_ms_per_ckpt", Unit: "ms", Better: lower},
	{Name: "core.hit_rate", Unit: "share", Better: higher},
	{Name: "core.rank_corr", Unit: "corr", Better: higher},
	{Name: "core.nullstore_pages_per_s", Unit: "1/s", Better: higher},
	{Name: "core.store_write_busy_ms", Unit: "ms", Better: lower},
	{Name: "core.store_endepoch_ms", Unit: "ms", Better: lower},
	{Name: "core.checkpoint_call_tail_us", Unit: "us", Better: lower},

	{Name: "util.fnv64a_mb_s", Unit: "MB/s", Better: higher},

	{Name: "compress.encode_mb_s.stencil", Unit: "MB/s", Better: higher},
	{Name: "compress.encode_mb_s.random", Unit: "MB/s", Better: higher},
	{Name: "compress.encode_mb_s.zero", Unit: "MB/s", Better: higher},
	{Name: "compress.decode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "compress.ratio", Unit: "B/B", Better: lower},

	{Name: "ckpt.writepage_us", Unit: "us", Better: lower},
	{Name: "ckpt.endepoch_ms", Unit: "ms", Better: lower},
	{Name: "ckpt.dedup_hit_share", Unit: "share", Better: higher},
	{Name: "ckpt.fs_write_mb_s", Unit: "MB/s", Better: higher},
	{Name: "ckpt.fs_publish_ms", Unit: "ms", Better: lower},
	{Name: "ckpt.fs_publish_tail_ms", Unit: "ms", Better: lower},
	{Name: "ckpt.fs_publishes_per_epoch", Unit: "count", Better: lower},
	{Name: "ckpt.self_ms_per_epoch", Unit: "ms", Better: lower},
	{Name: "ckpt.loadchain_ms", Unit: "ms", Better: lower},
	{Name: "ckpt.fs_read_mb_s", Unit: "MB/s", Better: higher},
	{Name: "ckpt.restore_self_ms", Unit: "ms", Better: lower},
	{Name: "ckpt.segments_read", Unit: "count", Better: lower},
	{Name: "ckpt.restore_allocs_per_page", Unit: "count", Better: lower},

	{Name: "compact.run_ms", Unit: "ms", Better: lower},
	{Name: "compact.bytes_rewritten", Unit: "B", Better: lower},
	{Name: "compact.bytes_reclaimed", Unit: "B", Better: higher},
	{Name: "compact.epochs_folded", Unit: "count", Better: higher},

	{Name: "multilevel.drain_lag_ms", Unit: "ms", Better: lower},
	{Name: "multilevel.l1_readback_ms", Unit: "ms", Better: lower},
	{Name: "multilevel.store_ms.peer", Unit: "ms", Better: lower},
	{Name: "multilevel.store_ms.pfs", Unit: "ms", Better: lower},
	{Name: "multilevel.load_ms.local", Unit: "ms", Better: lower},
	{Name: "multilevel.load_ms.peer", Unit: "ms", Better: lower},
	{Name: "multilevel.load_ms.pfs", Unit: "ms", Better: lower},
	{Name: "multilevel.restore_steps.local", Unit: "count", Better: higher},
	{Name: "multilevel.restore_steps.peer", Unit: "count", Better: lower},
	{Name: "multilevel.restore_steps.pfs", Unit: "count", Better: lower},
	{Name: "multilevel.drain_retries", Unit: "count", Better: lower},

	{Name: "erasure.encode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "erasure.decode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "erasure.muladd_mb_s", Unit: "MB/s", Better: higher},
	{Name: "erasure.accel", Unit: "count", Better: higher},

	{Name: "obs.overhead_pct", Unit: "%", Better: lower},

	{Name: "roofline.memcpy_mb_s", Unit: "MB/s", Better: higher},
	{Name: "roofline.flate_mb_s", Unit: "MB/s", Better: higher},
	{Name: "roofline.write_fsync_mb_s.64m", Unit: "MB/s", Better: higher},
	{Name: "roofline.write_fsync_mb_s.2m", Unit: "MB/s", Better: higher},
	{Name: "roofline.read_mb_s", Unit: "MB/s", Better: higher},

	{Name: "trace.overhead_pct", Unit: "%", Better: lower},

	// The reconciliation: blocking-path self time per layer over the
	// l1_durable_ms window and the restore_mb_s window, and how far their
	// sum is from the untraced figure.
	{Name: "recon.l1.core_ms", Unit: "ms", Better: lower},
	{Name: "recon.l1.ckpt_ms", Unit: "ms", Better: lower},
	{Name: "recon.l1.fs_ms", Unit: "ms", Better: lower},
	{Name: "recon.l1.sum_ms", Unit: "ms", Better: lower},
	{Name: "recon.l1.untraced_ms", Unit: "ms", Better: lower},
	{Name: "recon.l1.unattributed_pct", Unit: "%", Better: lower},
	{Name: "recon.restore.app_ms", Unit: "ms", Better: lower},
	{Name: "recon.restore.multilevel_ms", Unit: "ms", Better: lower},
	{Name: "recon.restore.ckpt_ms", Unit: "ms", Better: lower},
	{Name: "recon.restore.fs_ms", Unit: "ms", Better: lower},
	{Name: "recon.restore.sum_ms", Unit: "ms", Better: lower},
	{Name: "recon.restore.untraced_ms", Unit: "ms", Better: lower},
	{Name: "recon.restore.unattributed_pct", Unit: "%", Better: lower},
}

// metricValue is one reported figure: the median of its samples, how many
// there were, their quartiles, and for timings with enough samples the
// highest percentile that still has ten samples beyond it.
type metricValue struct {
	metricDef
	Value float64 `json:"value"`
	// Raw is the median as the clock read it, for the end-to-end timings,
	// which are reported at the nominal host speed (hostindex.go).
	Raw     float64 `json:"raw,omitempty"`
	N       int     `json:"n"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// values collects samples by metric name while a pass and its analysis run.
type values map[string][]float64

func (v values) set(name string, x float64) { v[name] = []float64{x} }

// report turns samples into one metricValue per definition, in table
// order. A metric without samples reads 0: it does not apply to the
// workload (no tier to load from, nothing to compact).
func report(defs []metricDef, v values) []metricValue {
	out := make([]metricValue, len(defs))
	for i, d := range defs {
		m := metricValue{metricDef: d}
		if xs := v[d.Name]; len(xs) > 0 {
			m.Value, m.N = stats.Median(xs), len(xs)
			m.Q1, m.Q3 = stats.Quartiles(xs)
			if len(xs) >= 20 {
				m.TailPct, m.Tail = stats.Tail(xs)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				m.Value = 0
			}
		}
		out[i] = m
	}
	return out
}
