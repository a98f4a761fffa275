// Package compact keeps an incremental checkpoint chain bounded: a
// background compactor folds sealed epoch ranges into consolidated base
// segments and garbage-collects the folded files, so restore latency, drain
// bandwidth and disk footprint stay flat as the run grows — the chain-side
// counterpart of the paper's "low overhead regardless of run length" goal,
// in the spirit of VELOC's background consolidation.
//
// The protocol is crash-safe: a base segment is written first (invisible to
// the chain until its manifest exists), the base manifest is the atomic
// commit point, and garbage collection of the superseded files runs only
// after the commit. A crash at any point leaves a chain that restores
// bit-identically — either the old chain (base invisible or manifest torn)
// or the new one (superseded files are ignored and collected later).
package compact

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// Policy decides when the chain is compacted and how much of it stays
// un-folded.
type Policy struct {
	// MaxDepth triggers compaction when the live chain (base + epochs
	// after it) exceeds this many entries; restore then never reads more
	// than MaxDepth segments for long. <= 0 disables the depth trigger.
	MaxDepth int
	// MaxAmplification triggers compaction when the chain's on-disk bytes
	// exceed this multiple of the live image size (the classic
	// size-amplification signal of log-structured stores). <= 0 disables.
	// Each evaluation scans the live chain's manifests, so an
	// amplification-only policy whose threshold is never crossed pays a
	// per-seal scan that grows with the chain; combine it with MaxDepth to
	// keep both the chain and the scan bounded.
	MaxAmplification float64
	// KeepRecent is the number of newest epochs never folded, so the base
	// is rewritten every ~KeepRecent checkpoints instead of on every seal.
	// Defaults to max(1, MaxDepth/2).
	KeepRecent int
}

// Enabled reports whether the policy can ever trigger a compaction.
func (p Policy) Enabled() bool { return p.MaxDepth > 0 || p.MaxAmplification > 0 }

func (p Policy) keepRecent() int {
	if p.KeepRecent > 0 {
		return p.KeepRecent
	}
	if p.MaxDepth/2 > 1 {
		return p.MaxDepth / 2
	}
	return 1
}

// Config assembles a compaction pass or a background Compactor.
type Config struct {
	// FS is the repository to compact.
	FS ckpt.FS
	// PageSize is the repository's page granularity.
	PageSize int
	// Codec compresses base segment records (a compress.Codec value; 0 =
	// none).
	Codec uint8
	// Policy decides when and how much to fold.
	Policy Policy
	// CanFold, when non-nil, gates which epochs may be folded; only a
	// contiguous prefix of foldable epochs is compacted. The multi-level
	// hierarchy uses it to hold back epochs still draining to lower tiers.
	CanFold func(epoch uint64) bool
	// OnCompacted, when non-nil, runs after a base commits and before its
	// superseded files are collected (the hierarchy updates tier manifests
	// here). base is the committed base manifest; folded lists the live
	// epochs absorbed this pass.
	OnCompacted func(base ckpt.Manifest, folded []uint64)
	// Metrics receives compaction observability (fold duration, reclaimed
	// bytes, pass outcomes). Nil disables instrumentation.
	Metrics *obs.Metrics
}

// Result describes one compaction pass.
type Result struct {
	// Compacted is true when a new base was written.
	Compacted bool
	// BaseFrom / BaseTo is the committed base's epoch range.
	BaseFrom, BaseTo uint64
	// EpochsFolded counts the live epochs folded into the base.
	EpochsFolded int
	// PagesWritten / BytesWritten size the new base segment.
	PagesWritten int
	BytesWritten int64
	// BytesReclaimed / FilesRemoved count the garbage collected (including
	// leftovers from earlier interrupted passes).
	BytesReclaimed int64
	FilesRemoved   int
	// LiveSegments is the number of segments the live chain holds after
	// the pass.
	LiveSegments int
}

// RunOnce performs one compaction pass: garbage-collect leftovers, decide
// per Policy (or unconditionally when force is set) whether to fold, write
// and commit the new base, and collect the files it supersedes. It is safe
// to run concurrently with an open epoch being streamed — only sealed
// epochs are touched — but passes themselves must not overlap (the
// Compactor serializes them).
func RunOnce(cfg Config, force bool) (Result, error) {
	start := cfg.Metrics.Now()
	res, err := runOnce(cfg, force)
	if m := cfg.Metrics; m != nil && err == nil {
		m.ReclaimedBytes.Add(uint64(res.BytesReclaimed))
		if res.Compacted {
			end := m.Now()
			d := int64(end - start)
			m.FoldNs.Observe(d)
			m.Compactions.Inc()
			m.EpochsFolded.Add(uint64(res.EpochsFolded))
			m.TraceAt(end, obs.StageCompact, res.BaseTo, -1, 0, res.BytesReclaimed)
			// The fold is attributed to the epoch the base ends at.
			m.Span(obs.SpanCompact, res.BaseTo, 0, start, end)
		} else {
			m.CompactSkips.Inc()
		}
	}
	return res, err
}

func runOnce(cfg Config, force bool) (Result, error) {
	var res Result
	ch, err := ckpt.LoadChain(cfg.FS)
	if err != nil {
		return res, err
	}
	// Collect leftovers from an earlier pass that crashed between commit
	// and GC, whether or not this pass folds anything new.
	reclaimed, removed := ckpt.GCSuperseded(cfg.FS, ch)
	res.BytesReclaimed += reclaimed
	res.FilesRemoved += len(removed)
	res.LiveSegments = ch.LiveSegments()

	foldable := foldablePrefix(ch, cfg.CanFold, force, cfg.Policy)
	if len(foldable) == 0 || !(force || triggered(ch, cfg.Policy)) {
		return res, nil
	}
	// A fold must shrink the chain: folding a single epoch with no
	// existing base just renames it.
	if ch.Base == nil && len(foldable) < 2 {
		return res, nil
	}

	// Fold the base and the foldable prefix into a consolidated image with
	// one segment reader: a compaction runs next to the application and
	// must not multiply its footprint for speed. The fold reads only the
	// newest copy of each page, like a restore.
	from := foldable[0].Epoch
	var entries []ckpt.Manifest
	if ch.Base != nil {
		from = ch.Base.Base.From
		entries = append(entries, *ch.Base)
	}
	entries = append(entries, foldable...)
	to := foldable[len(foldable)-1].Epoch
	pages, _, err := ckpt.FoldChain(cfg.FS, entries, 1)
	if err != nil {
		return res, fmt.Errorf("compact: fold [%d,%d]: %w", from, to, err)
	}
	folded := make([]uint64, len(foldable))
	for i, m := range foldable {
		folded[i] = m.Epoch
	}

	man, err := ckpt.WriteBase(cfg.FS, from, to, cfg.PageSize, &pages, cfg.Codec)
	if err != nil {
		return res, fmt.Errorf("compact: write base [%d,%d]: %w", from, to, err)
	}
	res.Compacted = true
	res.BaseFrom, res.BaseTo = from, to
	res.EpochsFolded = len(folded)
	res.PagesWritten = man.PageCount
	res.BytesWritten = man.TotalBytes
	if cfg.OnCompacted != nil {
		cfg.OnCompacted(man, folded)
	}

	// The base is committed; everything it covers is garbage now.
	ch, err = ckpt.LoadChain(cfg.FS)
	if err != nil {
		return res, err
	}
	reclaimed, removed = ckpt.GCSuperseded(cfg.FS, ch)
	res.BytesReclaimed += reclaimed
	res.FilesRemoved += len(removed)
	res.LiveSegments = ch.LiveSegments()
	return res, nil
}

// triggered evaluates the policy against the chain.
func triggered(ch *ckpt.Chain, p Policy) bool {
	if p.MaxDepth > 0 && ch.LiveSegments() > p.MaxDepth {
		return true
	}
	if p.MaxAmplification > 0 {
		if amp, ok := amplification(ch); ok && amp > p.MaxAmplification {
			return true
		}
	}
	return false
}

// amplification estimates on-disk bytes relative to the live image size,
// from manifests alone: the live image is approximated as the distinct
// pages across the chain at one page each.
func amplification(ch *ckpt.Chain) (float64, bool) {
	var onDisk int64
	distinct := map[int]struct{}{}
	count := func(m ckpt.Manifest) {
		onDisk += m.TotalBytes
		for _, p := range m.Pages {
			distinct[p] = struct{}{}
		}
		for _, r := range m.Refs {
			distinct[r.Page] = struct{}{}
		}
	}
	if ch.Base != nil {
		count(*ch.Base)
	}
	for _, m := range ch.Epochs {
		count(m)
	}
	live := int64(len(distinct)) * int64(ch.PageSize)
	if live == 0 {
		return 0, false
	}
	return float64(onDisk) / float64(live), true
}

// foldablePrefix selects the live epochs a pass may fold: the contiguous
// prefix allowed by canFold, minus the KeepRecent newest epochs of the
// chain (force folds everything foldable, keeping nothing back).
func foldablePrefix(ch *ckpt.Chain, canFold func(uint64) bool, force bool, p Policy) []ckpt.Manifest {
	keep := p.keepRecent()
	if force {
		keep = 0
	}
	n := len(ch.Epochs) - keep
	if n < 0 {
		n = 0
	}
	prefix := ch.Epochs[:n]
	if canFold == nil {
		return prefix
	}
	for i, m := range prefix {
		if !canFold(m.Epoch) {
			return prefix[:i]
		}
	}
	return prefix
}
