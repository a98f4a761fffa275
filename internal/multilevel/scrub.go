package multilevel

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// ScrubEntry is one scrub finding: a damaged (or torn) chain entry and
// what the pass did about it.
type ScrubEntry struct {
	Epoch  uint64 `json:"epoch"`
	IsBase bool   `json:"is_base,omitempty"`
	// Status is the ckpt segment-health status that triggered the entry
	// (or "drain-failed" for requeued tier copies).
	Status string `json:"status"`
	// Action records the outcome: "repaired from <tier>", "requeued",
	// "unrepaired: <reason>", or "" for torn tails (nothing to do).
	Action string `json:"action,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Checked counts the live chain entries verified on L1.
	Checked int `json:"checked"`
	// Corrupt counts the damaged entries found (torn tails excluded:
	// they were never sealed).
	Corrupt int `json:"corrupt"`
	// Repaired / Unrepaired split Corrupt by outcome.
	Repaired   int `json:"repaired"`
	Unrepaired int `json:"unrepaired"`
	// Requeued counts gave-up tier copies re-enqueued for draining.
	Requeued int          `json:"requeued"`
	Entries  []ScrubEntry `json:"entries,omitempty"`
}

// ScrubChain is the one scrub loop: it verifies the chain on fs
// (ckpt.VerifyChain), counts and lists its live entries' damage, and hands
// each damaged entry to repair. Torn tails are listed and need nothing.
// Superseded entries are verified but neither counted nor listed: restore
// never reads them. With a nil repair every damaged entry stays
// unrepaired, there being no redundant tier to rebuild it from. m may be
// nil.
func ScrubChain(fs ckpt.FS, m *obs.Metrics, repair func(*ScrubEntry, ckpt.SegmentHealth) error) (ScrubReport, error) {
	var rep ScrubReport
	health, err := ckpt.VerifyChain(fs)
	if err != nil {
		return rep, fmt.Errorf("multilevel: scrub: %w", err)
	}
	for _, hs := range health {
		if hs.Superseded {
			continue
		}
		rep.Checked++
		entry := ScrubEntry{Epoch: hs.Epoch, IsBase: hs.IsBase, Status: hs.Status, Detail: hs.Detail}
		if !hs.Damaged {
			if hs.Status == ckpt.StatusTornTail {
				rep.Entries = append(rep.Entries, entry)
			}
			continue
		}
		rep.Corrupt++
		rerr := errors.New("no redundant tier to rebuild from")
		if repair != nil {
			rerr = repair(&entry, hs)
		}
		if rerr == nil {
			rep.Repaired++
		} else {
			rep.Unrepaired++
			entry.Action = "unrepaired: " + rerr.Error()
		}
		rep.Entries = append(rep.Entries, entry)
	}
	if m != nil {
		m.ScrubSegments.Add(uint64(rep.Checked))
		m.ScrubCorrupt.Add(uint64(rep.Corrupt))
		m.ScrubRepaired.Add(uint64(rep.Repaired))
		m.ScrubUnrepaired.Add(uint64(rep.Unrepaired))
	}
	return rep, nil
}

// Scrub verifies every chain entry on the local tier with the checks
// restore makes (ScrubChain) and self-heals what it can: damaged epochs
// are quarantined and rebuilt from the fastest lower tier still holding
// them (peer erasure shards, then PFS), a damaged base is re-folded from
// the per-epoch copies the lower tiers kept, and tier copies abandoned
// after their retry budget (drain failures) are re-enqueued for promotion
// so a recovered tier catches back up. It is safe to run concurrently with
// active drains and seals: verification is read-only, repairs publish
// atomically, and requeueing takes the hierarchy lock. Under a
// virtual-time kernel it must be called from a kernel process.
func (h *Hierarchy) Scrub() (ScrubReport, error) {
	fs := h.local.FS()
	rep, err := ScrubChain(fs, h.obs, func(entry *ScrubEntry, hs ckpt.SegmentHealth) error {
		if hs.IsBase {
			return h.repairBase(entry, hs)
		}
		return h.repairEpoch(entry, hs)
	})
	if err != nil {
		return rep, err
	}
	// Re-enqueue gave-up tier copies. The base job (if one is needed)
	// ships the base image, so its manifest is loaded before the lock.
	var baseMan *ckpt.Manifest
	if ch, _, err := ckpt.LoadChainLenient(fs); err == nil && ch.Base != nil {
		baseMan = ch.Base
	}
	h.requeueFailed(&rep, baseMan)
	if h.obs != nil {
		h.obs.Trace(obs.StageScrub, 0, -1, 0, int64(rep.Corrupt))
	}
	return rep, nil
}

// repairEpoch rebuilds one damaged epoch on L1 from the fastest lower
// tier that still holds its pages: the damaged files are quarantined and
// the epoch's segment and manifest rewritten through the normal
// segment-then-manifest commit protocol, so a crash mid-repair leaves the
// epoch unsealed (and the repair reruns) rather than half-healed.
func (h *Hierarchy) repairEpoch(entry *ScrubEntry, hs ckpt.SegmentHealth) error {
	fs := h.local.FS()
	r := h.loadEpoch(hs.Epoch, 0, nil)
	if r.ep == nil {
		return fmt.Errorf("no lower tier holds epoch %d (%s)", hs.Epoch, strings.Join(r.detail, "; "))
	}
	// The old manifest, while it still decodes, hands its dedup
	// annotations to the rewrite; refs are pure accounting, so losing them
	// with the manifest is safe.
	var old *ckpt.Manifest
	if hs.Status != ckpt.StatusManifestCorrupt {
		if m, err := ckpt.ReadManifest(fs, hs.Epoch); err == nil {
			old = &m
		}
	}
	// Quarantine the damaged bytes (best effort: the rewrite publishes
	// atomically over whatever remains, but preserving the evidence and
	// clearing stale siblings keeps the directory honest).
	if hs.Manifest != "" && hs.Status == ckpt.StatusManifestCorrupt {
		_ = ckpt.Quarantine(fs, hs.Manifest)
	}
	if hs.Segment != "" && hs.Status == ckpt.StatusSegmentCorrupt {
		_ = ckpt.Quarantine(fs, hs.Segment)
	}
	if _, err := ckpt.RewriteEpoch(fs, hs.Epoch, h.pageSize, &r.ep.Pages, old); err != nil {
		return err
	}
	if h.obs != nil {
		h.obs.Trace(obs.StageRepair, hs.Epoch, -1, r.level, int64(r.ep.Pages.Len()))
	}
	entry.Action = "repaired from " + r.from
	return nil
}

// repairBase re-folds a damaged compacted base from the per-epoch copies
// the lower tiers kept (the compactor's fold gate guarantees every folded
// epoch settled below before the fold, and lower tiers never collect).
// Read winner-only as a restore reads it, the image at the newest tier
// epoch up to the base's To is the base: a page whose newest write was
// deduplicated is bit-identical to its newest physical record. Epochs no
// lower tier lists are unknown here; one listed but not loadable aborts
// the repair rather than publishing a base with a hole.
func (h *Hierarchy) repairBase(entry *ScrubEntry, hs ckpt.SegmentHealth) error {
	fs := h.local.FS()
	var from, to uint64
	if n, err := fmt.Sscanf(hs.Manifest, "base-%d-%d.json", &from, &to); err != nil || n != 2 {
		return fmt.Errorf("unparseable base manifest name %q", hs.Manifest)
	}
	p := h.newPlan(nil)
	p.obs = nil // a repair's reads are not a restore's
	t, owners, back, ok := p.pick(sort.Search(len(p.epochs), func(i int) bool { return p.epochs[i] > to }))
	var im *ckpt.Image
	if ok && back == nil {
		im, _, back = p.fold(t, owners, 1)
	}
	if back != nil {
		return fmt.Errorf("epoch %d of base [%d,%d] %s", back.Epoch, from, to, back.Detail)
	}
	if im == nil {
		return fmt.Errorf("no lower tier holds any epoch of base [%d,%d]", from, to)
	}
	level := int8(1)
	for _, o := range owners {
		level = int8(o.tier + 1)
	}
	if hs.Status == ckpt.StatusManifestCorrupt {
		_ = ckpt.Quarantine(fs, hs.Manifest)
	}
	if hs.Segment != "" && hs.Status == ckpt.StatusSegmentCorrupt {
		_ = ckpt.Quarantine(fs, hs.Segment)
	}
	if _, err := ckpt.WriteBase(fs, from, to, h.pageSize, &im.Pages, 0); err != nil {
		return err
	}
	if h.obs != nil {
		h.obs.Trace(obs.StageRepair, to, -1, level, int64(im.Pages.Len()))
	}
	entry.Action = "repaired by re-folding lower-tier epochs"
	return nil
}

// requeueFailed flips every gave-up tier copy back to draining and
// re-enqueues its epoch at the lowest failed tier; the job cascades from
// there, and tiers that already hold the epoch skip the store via their
// holder check. baseMan (the committed base's ckpt manifest, may be nil)
// lets a failed base promotion re-ship the base image.
func (h *Hierarchy) requeueFailed(rep *ScrubReport, baseMan *ckpt.Manifest) {
	h.mu.Lock()
	defer h.mu.Unlock()
	requeue := func(m *EpochManifest, job drainJob) {
		lowest := -1
		copies := 0
		for i := 1; i < len(m.Tiers); i++ {
			tc := &m.Tiers[i]
			if tc.State != StateFailed {
				continue
			}
			tc.State = StateDraining
			tc.Err = ""
			copies++
			if lowest == -1 {
				lowest = i - 1
			}
			if h.obs != nil {
				h.obs.FailedTierCopies.Add(-1)
				h.obs.DrainRequeues.Inc()
			}
		}
		if lowest == -1 {
			return
		}
		h.pending++
		h.enqueueLocked(lowest, job)
		h.mirror(m)
		rep.Requeued += copies
		rep.Entries = append(rep.Entries, ScrubEntry{
			Epoch:  m.Epoch,
			IsBase: m.Base != nil,
			Status: "drain-failed",
			Action: "requeued",
			Detail: fmt.Sprintf("tier copies re-enqueued: %d", copies),
		})
	}
	for _, e := range h.epochs {
		if h.superseded[e] {
			continue
		}
		if m, ok := h.manifests[e]; ok {
			requeue(m, drainJob{epoch: e})
		}
	}
	if h.baseMan != nil && baseMan != nil && baseMan.Base != nil &&
		h.baseMan.Base != nil && baseMan.Base.To == h.baseMan.Base.To {
		requeue(h.baseMan, drainJob{epoch: baseMan.Epoch, base: baseMan, man: h.baseMan})
	}
}
