package multilevel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// RestoreStep records one epoch of a tier-aware restore.
type RestoreStep struct {
	Epoch uint64
	// Tier is the tier the epoch's winners — the newest copies of the pages
	// it owns in the image — were read from; empty when the epoch was
	// unrecoverable, which puts the restart point below it.
	Tier string
	// Detail explains fallbacks: failed probes of faster tiers, what a base
	// folded, or why the epoch was unrecoverable.
	Detail string
}

// RestoreOptions tunes RestoreWith.
type RestoreOptions struct {
	// Workers is the number of concurrent readers: segment readers of the
	// L1 fold, then loaders of lower-tier epochs, whose loads overlap while
	// the fold stays in chain order. The image, steps and spans are the
	// same for every width. 0 or 1 is one reader: the default is not
	// derived from the host, so virtual time does not depend on it.
	Workers int
}

// epochLoad is one read's result for one epoch, handed to the folder.
type epochLoad struct {
	ep         *EpochData
	from       string
	level      int8
	detail     []string // failed probes of faster tiers; what a base folded
	start, end time.Duration
}

// Restore rebuilds the image of the newest epoch the tiers can still prove,
// reading each page's newest copy once. Every epoch's pages are listed from
// metadata first: L1's live chain (its compacted base covers the base's
// whole range), else the lower tiers' Tier.PageIDs, fastest first. The
// newest epoch listing a page owns it. L1's owning entries are folded in
// one ckpt.FoldChain; each owning lower-tier epoch is loaded from the
// fastest tier that delivers it — k of k+m erasure shards on the peers,
// otherwise the PFS copy — and gives the image only the pages it owns.
//
// The restart point is the epoch before the oldest sealed epoch — in the
// hierarchy's own record or listed by any tier — whose pages no tier can
// list. A winner-owning epoch no tier delivers moves the restart point
// below it too, and the pick is redone. The steps list the epochs read,
// ascending, then the unrecoverable ones in the order found, so the last
// names the epoch just past the restart point.
//
// Restore keeps one epoch in flight; RestoreWith overlaps tier loads.
func (h *Hierarchy) Restore() (*ckpt.Image, []RestoreStep, error) {
	return h.RestoreWith(RestoreOptions{})
}

// RestoreWith is Restore with explicit options.
func (h *Hierarchy) RestoreWith(opt RestoreOptions) (*ckpt.Image, []RestoreStep, error) {
	record := h.sealedRecord()
	var live []ckpt.Manifest
	if ch, _, err := ckpt.LoadChainLenient(h.local.FS()); err == nil {
		live = ch.Live()
	}
	p := h.newPlan(live)
	if len(p.epochs) == 0 {
		return nil, nil, errors.New("multilevel: no sealed epochs on any tier")
	}
	p.epochs = slices.Compact(slices.Sorted(slices.Values(append(p.epochs, record...))))
	var backs []RestoreStep
	for n := len(p.epochs); ; {
		t, owners, back, ok := p.pick(n)
		if back != nil {
			backs = append(backs, *back)
		}
		if !ok {
			return nil, backs, fmt.Errorf("multilevel: epoch %d unrecoverable on every tier", backs[len(backs)-1].Epoch)
		}
		im, steps, failed := p.fold(t, owners, max(opt.Workers, 1))
		switch {
		case im == nil: // an L1 entry failed: pick again, without it
			if back != nil {
				backs = backs[:len(backs)-1]
			}
		case failed != nil:
			backs = append(backs, *failed)
			n = sort.Search(n, func(i int) bool { return p.epochs[i] >= failed.Epoch })
		default:
			slices.SortStableFunc(steps, func(a, b RestoreStep) int { return cmp.Compare(a.Epoch, b.Epoch) })
			return im, append(steps, backs...), nil
		}
	}
}

// sealedRecord returns the epochs the hierarchy saw sealed, superseded ones
// included: one no tier holds is a hole, not an absence. Left out is the
// range of a base that reached a lower tier, whose epoch base.To carries it.
func (h *Hierarchy) sealedRecord() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var from, to uint64
	for i := 1; h.baseMan != nil && i < len(h.baseMan.Tiers); i++ {
		if st := h.baseMan.Tiers[i].State; st == StateStored || st == StateDegraded {
			from, to = h.baseMan.Base.From, h.baseMan.Base.To
		}
	}
	return slices.DeleteFunc(slices.Clone(h.epochs), func(e uint64) bool { return from <= e && e <= to && to > 0 })
}

// restorePlan picks each page's winner from metadata before any read.
type restorePlan struct {
	h      *Hierarchy
	obs    *obs.Metrics    // where reads count; nil: not a restore
	l1     []ckpt.Manifest // L1's live chain, base first
	l1Err  []error         // per L1 entry: why the fold could not read it
	epochs []uint64        // every sealed epoch known, ascending
}

// owner is one epoch's page list, from L1 entry `entry` or, when that is
// -1, from lower tier `tier`; detail holds the sources that failed to list
// it. Once picked, ids are the pages the epoch owns in the image, ascending.
type owner struct {
	epoch       uint64
	ids         []int
	entry, tier int
	detail      []string
}

// newPlan collects the epochs of live (L1's chain) and of the lower tiers.
// A tier that cannot list is skipped: its epochs may exist elsewhere.
func (h *Hierarchy) newPlan(live []ckpt.Manifest) *restorePlan {
	p := &restorePlan{h: h, obs: h.obs, l1: live, l1Err: make([]error, len(live))}
	for _, m := range live {
		p.epochs = append(p.epochs, m.Epoch)
	}
	for _, t := range h.lower {
		es, _ := t.Epochs()
		p.epochs = append(p.epochs, es...)
	}
	p.epochs = slices.Compact(slices.Sorted(slices.Values(p.epochs)))
	return p
}

// describe lists the pages epoch e wrote from the fastest source that can.
func (p *restorePlan) describe(e uint64) (d owner, ok bool) {
	d = owner{epoch: e, entry: -1}
	if i := sort.Search(len(p.l1), func(i int) bool { return p.l1[i].Epoch >= e }); i < len(p.l1) &&
		(p.l1[i].Epoch == e || p.l1[i].Base != nil && p.l1[i].Base.From <= e) {
		if p.l1Err[i] == nil {
			return owner{epoch: e, ids: p.l1[i].Pages, entry: i}, true
		}
		d.detail = append(d.detail, fmt.Sprintf("%s: %v", p.h.local.Name(), p.l1Err[i]))
	}
	for i, t := range p.h.lower {
		ids, err := t.PageIDs(e)
		if err == nil {
			d.ids, d.tier = ids, i
			return d, true
		}
		d.detail = append(d.detail, fmt.Sprintf("%s: %v", t.Name(), err))
	}
	return d, false
}

// pick finds the restart point among the first n known epochs — the epoch
// before the oldest one no source lists, which back names — and walks from
// there newest first, giving each page to the first epoch that lists it.
// owners come in chain order; ok is false when no epoch is left.
func (p *restorePlan) pick(n int) (t uint64, owners []owner, back *RestoreStep, ok bool) {
	var ds []owner
	for _, e := range p.epochs[:n] {
		d, listed := p.describe(e)
		if !listed {
			back = &RestoreStep{Epoch: e, Detail: strings.Join(append([]string{"unrecoverable: no tier lists its pages"}, d.detail...), "; ")}
			break
		}
		ds = append(ds, d)
	}
	if len(ds) == 0 {
		return 0, nil, back, false
	}
	seen := map[int]bool{}
	for i := len(ds) - 1; i >= 0; i-- {
		d := ds[i]
		if d.entry >= 0 && i+1 < len(ds) && ds[i+1].entry == d.entry {
			continue // a base lists its whole range once
		}
		d.ids = slices.DeleteFunc(slices.Clone(d.ids), func(id int) bool {
			dup := seen[id]
			seen[id] = true
			return dup
		})
		if len(d.ids) > 0 {
			slices.Sort(d.ids)
			owners = append(owners, d)
		}
	}
	slices.Reverse(owners)
	return ds[len(ds)-1].epoch, owners, back, true
}

// fold reads the image at t from its owners: the L1 entries in one
// FoldChain, then the lower-tier epochs through the ordered fan-out. An L1
// entry the fold cannot read is marked, and im comes back nil; a lower-tier
// epoch no tier delivers comes back as failed.
func (p *restorePlan) fold(t uint64, owners []owner, workers int) (im *ckpt.Image, steps []RestoreStep, failed *RestoreStep) {
	h := p.h
	var entries []ckpt.Manifest
	var l1, lower []owner
	for _, o := range owners {
		if o.entry >= 0 {
			entries, l1 = append(entries, p.l1[o.entry]), append(l1, o)
		} else {
			lower = append(lower, o)
		}
	}
	im = &ckpt.Image{PageSize: h.pageSize, Epoch: t}
	if len(entries) > 0 {
		start := h.obs.Now()
		pages, segments, err := h.local.fold(entries, workers)
		if err != nil {
			p.isolate(l1, err)
			return nil, nil, nil
		}
		im.Pages, im.SegmentsRead = pages, segments
		r := epochLoad{from: h.local.Name(), start: start, end: h.obs.Now()}
		for _, o := range l1 {
			r.detail = nil
			if b := p.l1[o.entry].Base; b != nil {
				r.detail = []string{fmt.Sprintf("base [%d,%d]: %d epochs folded", b.From, b.To, b.To-b.From+1)}
			}
			steps = append(steps, p.note(o.epoch, r, len(o.ids)))
		}
	}
	// Loaders run on h.env: under the virtual-time kernel their transfers
	// contend for the simulated links. The first failure ends the fan-out,
	// discarding later loads; the loaders have drained when it returns.
	errFailed := errors.New("failed")
	sim.OrderedFanout(h.env, len(lower), workers,
		func(i int) (epochLoad, error) { return h.loadEpoch(lower[i].epoch, lower[i].tier, lower[i].ids), nil },
		func(i int, r epochLoad) error {
			o := lower[i]
			r.detail = append(slices.Clone(o.detail), r.detail...)
			if r.ep == nil {
				failed = &RestoreStep{Epoch: o.epoch, Detail: "unrecoverable: " + strings.Join(r.detail, "; ")}
				return errFailed
			}
			own := ckpt.NewPageSet(len(o.ids))
			for _, id := range o.ids {
				data, _ := r.ep.Pages.Get(id)
				own.Append(id, data)
			}
			im.Pages.Merge(&own)
			im.SegmentsRead++
			steps = append(steps, p.note(o.epoch, r, r.ep.Pages.Len()))
			return nil
		})
	return im, steps, failed
}

// isolate reads each L1 entry of a failed fold alone and marks those that
// fail, so the pick lists their epochs from the lower tiers. When none
// fails alone, all are marked with the fold's error.
func (p *restorePlan) isolate(l1 []owner, err error) {
	bad := false
	for _, o := range l1 {
		if _, _, e := p.h.local.fold(p.l1[o.entry:o.entry+1], 1); e != nil {
			p.l1Err[o.entry], bad = e, true
		}
	}
	for i := 0; !bad && i < len(l1); i++ {
		p.l1Err[l1[i].entry] = err
	}
}

// loadEpoch probes the lower tiers from index from on, fastest first, for
// one epoch, timing the whole probe sequence: a failed probe of a faster
// tier is real restore latency and belongs to the epoch's span. A copy that
// lacks a page of need fails its probe: the pick chose the epoch for those.
func (h *Hierarchy) loadEpoch(epoch uint64, from int, need []int) epochLoad {
	r := epochLoad{start: h.obs.Now()}
	for li := from; li < len(h.lower); li++ {
		t := h.lower[li]
		loaded, err := t.Load(epoch)
		for i := 0; err == nil && i < len(need); i++ {
			if _, ok := loaded.Pages.Get(need[i]); !ok {
				err = fmt.Errorf("copy of epoch %d lacks page %d", epoch, need[i])
			}
		}
		if err != nil {
			r.detail = append(r.detail, fmt.Sprintf("%s: %v", t.Name(), err))
			continue
		}
		r.ep, r.from, r.level = loaded, t.Name(), int8(li+1)
		break
	}
	r.end = h.obs.Now()
	return r
}

// note records one epoch read into the image: its step, span and
// counters. The span's tier is the level that finally served the epoch;
// its duration includes the failed probes of the faster tiers above it —
// that lost time is real restore latency and belongs to this epoch.
func (p *restorePlan) note(epoch uint64, r epochLoad, pages int) RestoreStep {
	if m := p.obs; m != nil {
		m.RestoreEpochs.Inc()
		m.RestorePages.Add(uint64(pages))
		m.TraceAt(r.end, obs.StageRestore, epoch, -1, r.level, int64(pages))
		m.Span(obs.SpanRestore, epoch, r.level, r.start, r.end)
	}
	return RestoreStep{Epoch: epoch, Tier: r.from, Detail: strings.Join(r.detail, "; ")}
}
