package multilevel

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// RestoreStep records where one epoch was read from during a tier-aware
// restore.
type RestoreStep struct {
	Epoch uint64
	// Tier is the tier that served the epoch; empty when the epoch was
	// unrecoverable on every tier.
	Tier string
	// Detail explains fallbacks: why faster tiers were skipped, or why the
	// epoch was unrecoverable.
	Detail string
}

// RestoreOptions tunes RestoreWith.
type RestoreOptions struct {
	// Workers is the number of concurrent epoch loaders. Each loader
	// probes the tiers fastest-first for one epoch, so tier loads for
	// *different* epochs overlap while the fold itself stays in strict
	// chain order: the image, the per-epoch RestoreSteps and the
	// SpanRestore sources are the same for every width, only the wall (or
	// virtual) time shrinks. 0 or 1 is one loader, which starts epoch N+1
	// the instant it finishes N. The default is not derived from the host,
	// so a virtual-time run does not depend on the machine it runs on.
	Workers int
}

// epochLoad is one loader's result for one epoch, handed to the folder.
type epochLoad struct {
	ep         *EpochData
	from       string
	level      int8
	detail     []string // failed probes of faster tiers; what a base folded
	start, end time.Duration
}

// Restore folds the checkpoint chain back into a memory image, reading
// each epoch from the fastest tier that can still deliver it: L1 if its
// files survive, otherwise reconstruction from any k of k+m erasure shards
// on the peers, otherwise the parallel-file-system copy. A committed base
// on the local tier is folded first and the epochs it covers are skipped
// entirely, so a compacted hierarchy restores by reading the base plus the
// few live epochs instead of the whole history; when the base is lost with
// the local tier, restore falls back to the per-epoch copies on the lower
// tiers. Because epochs are incremental, the chain is folded oldest to
// newest and stops at the first epoch no tier can recover — the restart
// point is the last epoch of the intact prefix. The returned steps
// document the per-epoch source.
//
// Restore keeps one epoch in flight at a time; RestoreWith overlaps tier
// loads across epochs.
func (h *Hierarchy) Restore() (*ckpt.Image, []RestoreStep, error) {
	return h.RestoreWith(RestoreOptions{})
}

// RestoreWith is Restore with explicit options.
func (h *Hierarchy) RestoreWith(opt RestoreOptions) (*ckpt.Image, []RestoreStep, error) {
	im := &ckpt.Image{PageSize: h.pageSize}
	var steps []RestoreStep
	folded := 0

	// Try the local tier's compacted base first; it folds like an epoch
	// served by tier 0.
	var skipTo uint64
	if ch, err := ckpt.LoadChain(h.local.FS()); err == nil && ch.Base != nil {
		b := ch.Base.Base
		r := epochLoad{from: h.local.Name(), start: h.obs.Now()}
		pages, _, err := ckpt.FoldChain(h.local.FS(), []ckpt.Manifest{*ch.Base}, 1)
		r.end = h.obs.Now()
		if err == nil {
			r.ep = &EpochData{Epoch: b.To, PageSize: h.pageSize, Pages: pages}
			r.detail = []string{fmt.Sprintf("base [%d,%d]: %d epochs folded", b.From, b.To, b.To-b.From+1)}
			h.foldEpoch(im, b.To, r, &steps)
			skipTo = b.To
			folded++
		} else {
			steps = append(steps, RestoreStep{
				Epoch:  b.To,
				Detail: fmt.Sprintf("base [%d,%d] unreadable, falling back to per-epoch tiers: %v", b.From, b.To, err),
			})
		}
	}

	tiers := h.Tiers()
	epochs := tierEpochs(tiers, func(e uint64) bool { return e > skipTo })
	if len(epochs) == 0 && folded == 0 {
		return nil, nil, fmt.Errorf("multilevel: no sealed epochs on any tier")
	}
	// Because epochs are incremental the fold stops at the first one no
	// tier can recover; that is an error only when nothing came before it.
	broken := h.foldEpochs(tiers, epochs, opt.Workers, func(epoch uint64, r epochLoad) error {
		if !h.foldEpoch(im, epoch, r, &steps) {
			return fmt.Errorf("multilevel: epoch %d unrecoverable on every tier", epoch)
		}
		folded++
		return nil
	})
	if folded == 0 {
		return nil, steps, broken
	}
	return im, steps, nil
}

// tierEpochs returns, ascending, every epoch keep accepts that at least one
// of tiers lists. A tier that cannot list is skipped: its epochs may exist
// elsewhere.
func tierEpochs(tiers []Tier, keep func(epoch uint64) bool) []uint64 {
	seen := map[uint64]bool{}
	var epochs []uint64
	for _, t := range tiers {
		es, err := t.Epochs()
		if err != nil {
			continue
		}
		for _, e := range es {
			if keep(e) && !seen[e] {
				seen[e] = true
				epochs = append(epochs, e)
			}
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs
}

// foldEpochs is the one epoch fold: workers loader processes claim epochs
// in chain order and probe tiers for them concurrently while the calling
// process hands each result to fold strictly in chain order. Loaders run on
// h.env, so under the virtual-time kernel concurrent tier transfers contend
// for the same simulated links a real parallel restore would. A fold error
// ends it at the intact prefix: later loads are discarded and the loaders
// have drained when it returns. Restore and base repair both fold with it.
func (h *Hierarchy) foldEpochs(tiers []Tier, epochs []uint64, workers int, fold func(epoch uint64, r epochLoad) error) error {
	return sim.OrderedFanout(h.env, len(epochs), workers,
		func(i int) (epochLoad, error) { return h.loadEpoch(tiers, epochs[i]), nil },
		func(i int, r epochLoad) error { return fold(epochs[i], r) })
}

// loadEpoch probes the tiers fastest-first for one epoch, timing the whole
// probe sequence: a failed probe of a faster tier is real restore latency
// and belongs to the epoch's span.
func (h *Hierarchy) loadEpoch(tiers []Tier, epoch uint64) epochLoad {
	r := epochLoad{start: h.obs.Now()}
	for li, t := range tiers {
		loaded, err := t.Load(epoch)
		if err != nil {
			r.detail = append(r.detail, fmt.Sprintf("%s: %v", t.Name(), err))
			continue
		}
		r.ep, r.from, r.level = loaded, t.Name(), int8(li)
		break
	}
	r.end = h.obs.Now()
	return r
}

// foldEpoch merges one loaded epoch into the image and records its step,
// span and counters. Returns false when the epoch was unrecoverable: the
// incremental chain is broken and the restart point is the previous epoch.
func (h *Hierarchy) foldEpoch(im *ckpt.Image, epoch uint64, r epochLoad, steps *[]RestoreStep) bool {
	if r.ep == nil {
		*steps = append(*steps, RestoreStep{Epoch: epoch, Detail: "unrecoverable: " + strings.Join(r.detail, "; ")})
		return false
	}
	n := r.ep.Pages.Len()
	im.Pages.Merge(&r.ep.Pages)
	im.Epoch = epoch
	im.SegmentsRead++
	if h.obs != nil {
		h.obs.RestoreEpochs.Inc()
		h.obs.RestorePages.Add(uint64(n))
		h.obs.TraceAt(r.end, obs.StageRestore, epoch, -1, r.level, int64(n))
		// The restore span's tier is the level that finally served the
		// epoch; its duration includes the failed probes of the faster
		// tiers above it — that lost time is real restore latency and
		// belongs to this epoch.
		h.obs.Span(obs.SpanRestore, epoch, r.level, r.start, r.end)
	}
	*steps = append(*steps, RestoreStep{Epoch: epoch, Tier: r.from, Detail: strings.Join(r.detail, "; ")})
	return true
}
