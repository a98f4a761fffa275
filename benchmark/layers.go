package main

import (
	"repro/benchmark/stats"
)

// layerFigures derives the per-layer metrics a traced pass can give: the
// runtime's own fault counters, sums and medians over the recorded spans,
// and the two reconciliations against the untraced pass ref.
func layerFigures(traced, ref *run, v values) {
	coreFigures(traced, v)
	spans := traced.tr.snapshot()
	measured := map[uint32]bool{}
	for _, e := range traced.measured {
		measured[e] = true
	}
	commitFigures(traced, spans, measured, v)
	restoreFigures(traced, spans, v)
	tierFigures(traced, spans, measured, v)

	v.set("compact.bytes_rewritten", float64(traced.compaction.BytesWritten))
	v.set("compact.bytes_reclaimed", float64(traced.compaction.BytesReclaimed))
	v.set("compact.epochs_folded", float64(traced.compaction.EpochsFolded))
	for _, s := range spans {
		if s.kind == spCompact {
			v.set("compact.run_ms", float64(s.dur())/1e6)
		}
	}
	if stored, deduped := traced.dedupStored, traced.dedupElided; stored+deduped > 0 {
		v.set("ckpt.dedup_hit_share", float64(deduped)/float64(stored+deduped))
	}
	v.set("ckpt.loadchain_ms", traced.loadChainMs)

	refL1 := stats.Median(ref.samples["l1_durable_ms"])
	reconcile(v, "recon.l1", refL1)
	// restore_mb_s is image megabytes per second; the window is its time.
	imageMB := float64(ref.pages*pageSize) / 1e6
	reconcile(v, "recon.restore", imageMB/stats.Median(ref.samples["restore_mb_s"])*1e3)
	v.set("trace.overhead_pct", 100*(stats.Median(traced.samples["l1_durable_ms"])/refL1-1))
}

// reconcile closes one reconciliation table: the window's layer parts are
// already in v under prefix; this adds the untraced figure and how far the
// traced sum is from it.
func reconcile(v values, prefix string, untracedMs float64) {
	sum := stats.Median(v[prefix+".sum_ms"])
	v.set(prefix+".untraced_ms", untracedMs)
	v.set(prefix+".unattributed_pct", 100*(untracedMs-sum)/untracedMs)
}

// coreFigures reads the fault classification the runtime keeps per
// checkpoint. The four classes must add up to the faults it counted.
func coreFigures(r *run, v values) {
	st := r.rt.Stats()
	var waits, cows, avoided, after, arrivals int
	var hit, corr, waitMs float64
	for _, e := range r.measured {
		s := st[e-1]
		waits, cows, avoided, after = waits+s.Waits, cows+s.Cows, avoided+s.Avoided, after+s.After
		arrivals += s.FaultArrivals
		waitMs += ms(s.WaitTime)
		hit += s.HitRate()
		corr += s.RankCorrelation()
	}
	n := float64(len(r.measured))
	if got := waits + cows + avoided + after; got != arrivals {
		r.fail("fault classes add up to %d, the runtime counted %d faults", got, arrivals)
	}
	v.set("core.waits_per_ckpt", float64(waits)/n)
	v.set("core.cows_per_ckpt", float64(cows)/n)
	v.set("core.avoided_per_ckpt", float64(avoided)/n)
	v.set("core.after_per_ckpt", float64(after)/n)
	v.set("core.wait_ms_per_ckpt", waitMs/n)
	v.set("core.hit_rate", hit/n)
	v.set("core.rank_corr", corr/n)
	_, tail := stats.Tail(r.samples["ckpt_call_us"])
	v.set("core.checkpoint_call_tail_us", tail)
}

// commitFigures covers the write side: the Store boundary, the FS calls
// under it, and the l1_durable_ms window split between core, ckpt and fs.
func commitFigures(r *run, spans []span, measured map[uint32]bool, v values) {
	local := r.tr.tag("local")
	type window struct{ lo, hi int64 }
	windows := map[uint32]*window{}
	busy := map[uint32]float64{} // Σ WritePage time per epoch, over workers
	var fsWriteBytes, fsWriteNs int64
	publishes := 0
	for _, s := range spans {
		if !measured[s.epoch] {
			continue
		}
		switch {
		case s.kind == spCheckpoint:
			windows[s.epoch] = &window{lo: s.start}
		case s.kind == spEndEpoch:
			v["core.store_endepoch_ms"] = append(v["core.store_endepoch_ms"], float64(s.dur())/1e6)
			// Sealed when EndEpoch returns; a WaitIdle that the
			// application blocks in ends a moment later and wins below.
			if w := windows[s.epoch]; w != nil && w.hi == 0 {
				w.hi = s.end
			}
		case s.kind == spWaitIdle:
			if w := windows[s.epoch]; w != nil {
				w.hi = s.end
			}
		case s.kind == spWritePage:
			v["ckpt.writepage_us"] = append(v["ckpt.writepage_us"], float64(s.dur())/1e3)
			busy[s.epoch] += float64(s.dur()) / 1e6
		case s.kind == spFSWrite && s.tag == local:
			fsWriteBytes += int64(s.arg)
			fsWriteNs += s.dur()
		case s.kind == spFSPublish && s.tag == local:
			publishes++
			v["ckpt.fs_publish_ms"] = append(v["ckpt.fs_publish_ms"], float64(s.dur())/1e6)
		}
	}
	v["ckpt.endepoch_ms"] = v["core.store_endepoch_ms"]
	for _, b := range busy {
		v["core.store_write_busy_ms"] = append(v["core.store_write_busy_ms"], b)
	}
	if fsWriteNs > 0 {
		v.set("ckpt.fs_write_mb_s", float64(fsWriteBytes)/1e6/(float64(fsWriteNs)/1e9))
	}
	_, tail := stats.Tail(v["ckpt.fs_publish_ms"])
	v.set("ckpt.fs_publish_tail_ms", tail)
	v.set("ckpt.fs_publishes_per_epoch", float64(publishes)/float64(len(r.measured)))

	for epoch, w := range windows {
		if w.hi == 0 {
			continue
		}
		self := selfTimes(spans, w.lo, w.hi, lyCore, func(s span) bool {
			if s.epoch != epoch {
				return false
			}
			switch s.kind {
			case spWritePage, spEndEpoch:
				return true
			case spFSCreate, spFSWrite, spFSPublish:
				return s.tag == local
			}
			return false
		})
		v["recon.l1.core_ms"] = append(v["recon.l1.core_ms"], float64(self[lyCore])/1e6)
		v["recon.l1.ckpt_ms"] = append(v["recon.l1.ckpt_ms"], float64(self[lyCkpt])/1e6)
		v["recon.l1.fs_ms"] = append(v["recon.l1.fs_ms"], float64(self[lyFS])/1e6)
		v["recon.l1.sum_ms"] = append(v["recon.l1.sum_ms"], float64(w.hi-w.lo)/1e6)
	}
	v["ckpt.self_ms_per_epoch"] = v["recon.l1.ckpt_ms"]
}

// restoreFigures covers the read side. Every restore is a Restore span
// followed by a LoadImage span; the phase behind restore_mb_s is the last
// with tiers (degraded) and the first without (the uncompacted chain).
func restoreFigures(r *run, spans []span, v values) {
	type window struct{ lo, hi int64 }
	var windows []window
	for _, s := range spans {
		switch s.kind {
		case spRestore:
			windows = append(windows, window{lo: s.start})
		case spLoadImage:
			windows[len(windows)-1].hi = s.end
		}
	}
	var readBytes, readNs int64
	for _, s := range spans {
		if s.kind == spFSRead && len(windows) > 0 && s.start >= windows[0].lo {
			readBytes += int64(s.arg)
			readNs += s.dur()
		}
	}
	if readNs > 0 {
		v.set("ckpt.fs_read_mb_s", float64(readBytes)/1e6/(float64(readNs)/1e9))
	}
	n := r.def.restores
	phase := windows[:min(n, len(windows))]
	if r.def.spec.tiers {
		phase = windows[max(0, len(windows)-n):]
	}
	for _, w := range phase {
		if w.hi == 0 {
			continue // the restore failed before there was an image to load
		}
		self := selfTimes(spans, w.lo, w.hi, lyApp, func(s span) bool {
			switch s.kind {
			case spRestore, spLoadImage, spTierLoad, spFSOpen, spFSRead, spFSCloseRead, spFSList:
				return true
			}
			return false
		})
		for _, l := range []layer{lyApp, lyMultilevel, lyCkpt, lyFS} {
			name := "recon.restore." + layerNames[l] + "_ms"
			v[name] = append(v[name], float64(self[l])/1e6)
		}
		v["recon.restore.sum_ms"] = append(v["recon.restore.sum_ms"], float64(w.hi-w.lo)/1e6)
	}
	v["ckpt.restore_self_ms"] = v["recon.restore.ckpt_ms"]
	info := r.restoreInfo["restore_mb_s"]
	v.set("ckpt.segments_read", float64(info.segments))
	v.set("ckpt.restore_allocs_per_page", info.allocsPerPage)
	for _, tier := range []string{"local", "peer", "pfs"} {
		v.set("multilevel.restore_steps."+tier, float64(info.steps[tier]))
	}
}

// tierFigures covers the multilevel → Tier boundary and the local tier's
// read-back, which has no boundary of its own: the drainer reads the local
// repository through a concrete type, so its cost shows as the local
// view's reads while the application loop runs, and a local load during a
// restore as the open-to-close life of a segment file.
func tierFigures(r *run, spans []span, measured map[uint32]bool, v values) {
	local := r.tr.tag("local")
	readback := map[uint32]float64{}
	open := map[uint32]int64{} // epoch → start of the segment Open in flight
	retries := 0
	for _, s := range spans {
		inLoop := s.start < r.appEnd
		switch {
		case s.kind == spTierStore:
			retries += int(s.arg)
			if measured[s.epoch] {
				name := "multilevel.store_ms." + r.tr.tags[s.tag]
				v[name] = append(v[name], float64(s.dur())/1e6)
			}
		case s.kind == spTierLoad:
			name := "multilevel.load_ms." + r.tr.tags[s.tag]
			v[name] = append(v[name], float64(s.dur())/1e6)
		case s.tag != local || !r.def.spec.tiers:
			// The rest is about the hierarchy's local tier only.
		case inLoop && measured[s.epoch] && (s.kind == spFSOpen || s.kind == spFSRead || s.kind == spFSCloseRead):
			readback[s.epoch] += float64(s.dur()) / 1e6
		case !inLoop && s.kind == spFSOpen && s.arg == 1:
			open[s.epoch] = s.start
		case !inLoop && s.kind == spFSCloseRead && s.arg == 1:
			v["multilevel.load_ms.local"] = append(v["multilevel.load_ms.local"], float64(s.end-open[s.epoch])/1e6)
		}
	}
	for _, ms := range readback {
		v["multilevel.l1_readback_ms"] = append(v["multilevel.l1_readback_ms"], ms)
	}
	v.set("multilevel.drain_retries", float64(retries))
	v.set("multilevel.drain_lag_ms",
		stats.Median(r.samples["all_tiers_durable_ms"])-stats.Median(r.samples["l1_durable_ms"]))
}
