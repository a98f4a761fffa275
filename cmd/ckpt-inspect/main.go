// Command ckpt-inspect examines an AI-Ckpt checkpoint repository: it lists
// every chain entry — consolidated bases and sealed epochs — verifies
// every record with the checks restore makes (aickpt.Verify), reports
// per-entry dedup ratios, marks entries superseded by a compacted base,
// sums the bytes a garbage-collection pass could reclaim, and prints the
// page size and the restart point.
// When the repository is the local tier of a multi-level hierarchy, it
// also prints each epoch's tier manifest: which tiers hold the epoch, in
// what state, and the erasure shard layout on the peer tier.
//
// The metrics mode inspects a running (or finished) runtime instead of a
// repository: given the address of a live debug endpoint
// (Options.DebugAddr) it scrapes /snapshot and /trace; given a file it
// reads a saved snapshot JSON. Either way it renders the metric counters,
// the per-stage latency histograms (count, mean, p50/p90/p99, max) and —
// when live — the tail of the pipeline trace journal.
//
// The epochs and scorecard modes read the epoch flight recorder (the
// /epochs endpoint, live or saved to a file): `epochs` prints each
// epoch's lifecycle span tree with its critical-path breakdown and the
// stage that bounded its latency; `scorecard` prints the selector
// prediction scorecard — predicted flush order vs actual fault arrivals
// as hit rate and rank correlation — plus the per-region fault heatmaps.
//
// Usage:
//
// The verify mode runs the read-only integrity check (record hashes,
// manifest decode, torn-tail vs interior-corruption classification) over a
// repository directory, reporting for each damaged entry which lower tier
// a scrub could repair it from; pointed at a live debug address it POSTs
// /scrub instead, asking the running runtime to verify and self-heal.
//
// Usage:
//
//	ckpt-inspect <repository-dir>
//	ckpt-inspect verify <repository-dir | debug-addr>
//	ckpt-inspect metrics <debug-addr | snapshot.json>
//	ckpt-inspect epochs <debug-addr | epochs.json>
//	ckpt-inspect scorecard <debug-addr | epochs.json>
package main

import (
	"fmt"
	"os"
	"strings"

	aickpt "repro"
)

func main() {
	if len(os.Args) == 3 {
		switch os.Args[1] {
		case "metrics":
			runMetrics(os.Args[2])
			return
		case "epochs":
			runEpochs(os.Args[2])
			return
		case "scorecard":
			runScorecard(os.Args[2])
			return
		case "verify":
			runVerify(os.Args[2])
			return
		}
	}
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ckpt-inspect <repository-dir>\n"+
			"       ckpt-inspect verify <repository-dir | debug-addr>\n"+
			"       ckpt-inspect metrics <debug-addr | snapshot.json>\n"+
			"       ckpt-inspect epochs <debug-addr | epochs.json>\n"+
			"       ckpt-inspect scorecard <debug-addr | epochs.json>")
		os.Exit(2)
	}
	dir := os.Args[1]
	health, err := aickpt.Verify(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckpt-inspect:", err)
		os.Exit(1)
	}
	if len(health) == 0 {
		fmt.Println("no sealed epochs found")
		os.Exit(0)
	}
	fmt.Printf("%-28s %-8s %-8s %-8s %-12s %-10s %-16s %s\n",
		"entry", "pages", "deduped", "dedup%", "bytes", "chain", "status", "detail")
	healthy := true
	// The chain line is summed from the same rows: live entries hold the
	// live segments, bytes and dedup references, superseded ones what a
	// garbage-collection pass would reclaim.
	var pageSize, segments, deduped int
	var live, reclaimable int64
	base := ""
	for _, h := range health {
		chain := "live"
		if h.Superseded {
			chain = "superseded"
		}
		ratio := 0.0
		if n := h.PageCount + h.Deduped; n > 0 {
			ratio = float64(h.Deduped) / float64(n)
		}
		fmt.Printf("%-28s %-8d %-8d %-8s %-12d %-10s %-16s %s\n", h.Manifest, h.PageCount, h.Deduped,
			fmt.Sprintf("%.0f%%", ratio*100), h.TotalBytes, chain, h.Status, h.Detail)
		healthy = healthy && !h.Damaged
		switch {
		case h.Status == aickpt.HealthTornTail || h.Status == aickpt.HealthManifestCorrupt:
			// No manifest, so nothing to count.
		case h.Superseded:
			reclaimable += h.TotalBytes
		default:
			pageSize = h.PageSize
			live += h.TotalBytes
			deduped += h.Deduped
			if h.IsBase {
				base = h.Manifest
			}
			if h.Segment != "" {
				segments++
			}
		}
	}
	fmt.Printf("\nchain: %d B pages, %d live segment(s), %d B live", pageSize, segments, live)
	if base != "" {
		fmt.Printf(", compacted base %s", base)
	}
	if deduped > 0 {
		fmt.Printf(", %d page write(s) deduplicated", deduped)
	}
	fmt.Printf("\nreclaimable by GC: %d B\n", reclaimable)
	if tiers, err := aickpt.InspectTiers(dir); err != nil {
		fmt.Fprintf(os.Stderr, "ckpt-inspect: tier manifests unreadable: %v\n", err)
		healthy = false
	} else if len(tiers) > 0 {
		fmt.Printf("\ntier manifests:\n")
		fmt.Printf("%-16s %-10s %-8s %-12s %s\n", "entry", "tier", "level", "state", "shards")
		for _, m := range tiers {
			entry := fmt.Sprintf("epoch %d", m.Epoch)
			if m.Base != nil {
				entry = fmt.Sprintf("base [%d,%d]", m.Base.From, m.Base.To)
			}
			for _, tc := range m.Tiers {
				layout := "-"
				if tc.Shards != nil {
					layout = fmt.Sprintf("rs(k=%d,m=%d) start=%d on %s",
						tc.Shards.Data, tc.Shards.Parity, tc.Shards.Start, strings.Join(tc.Shards.Nodes, ","))
				}
				state := tc.State
				if tc.Err != "" {
					state += " (" + tc.Err + ")"
				}
				fmt.Printf("%-16s %-10s %-8d %-12s %s\n", entry, tc.Tier, tc.Level, state, layout)
			}
		}
	}
	if im, err := aickpt.Restore(dir); err == nil {
		fmt.Printf("\nrestart point: epoch %d (%d distinct pages, %d segment(s) read)\n",
			im.Epoch, len(im.PageIDs()), im.SegmentsRead())
	} else {
		fmt.Printf("\nrestore would fail: %v\n", err)
	}
	if !healthy {
		os.Exit(1)
	}
}
