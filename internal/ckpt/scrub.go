package ckpt

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"

	"repro/internal/compress"
)

// Segment health statuses reported by VerifyChain.
const (
	// StatusOK: manifest decoded and every segment record verified.
	StatusOK = "ok"
	// StatusTornTail: a manifest torn by a mid-crash write, newer than
	// every intact chain entry — the epoch never sealed; harmless, no
	// repair needed (the file is still a quarantine candidate).
	StatusTornTail = "torn-tail"
	// StatusManifestCorrupt: an interior manifest failed to decode — the
	// epoch was provably sealed once, so this is real damage.
	StatusManifestCorrupt = "manifest-corrupt"
	// StatusSegmentMissing: a sealed manifest whose segment file is gone.
	StatusSegmentMissing = "segment-missing"
	// StatusSegmentCorrupt: a segment whose records fail the checks restore
	// makes (framing, size, payload hash, decode, page id or content hash
	// against the manifest) or that goes on past its last record.
	StatusSegmentCorrupt = "segment-corrupt"
)

// SegmentHealth is one VerifyChain finding: the health of one chain entry
// (or one unloadable manifest).
type SegmentHealth struct {
	// Manifest is the manifest file name.
	Manifest string `json:"manifest"`
	// Segment is the segment file name ("" when the entry has none, see
	// Manifest.HasSegment).
	Segment string `json:"segment,omitempty"`
	// Epoch is the entry's epoch (a base's To).
	Epoch uint64 `json:"epoch"`
	// IsBase marks a consolidated base entry.
	IsBase bool `json:"is_base,omitempty"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// Detail carries the verification error for non-ok statuses.
	Detail string `json:"detail,omitempty"`
	// PageSize is the entry's page size, PageCount its physical record
	// count and TotalBytes its segment size (all 0 when the manifest is
	// unreadable); Deduped counts the page writes it recorded as references
	// instead.
	PageSize   int   `json:"page_size,omitempty"`
	PageCount  int   `json:"page_count"`
	TotalBytes int64 `json:"total_bytes"`
	Deduped    int   `json:"deduped,omitempty"`
	// Superseded marks an entry a newer committed base covers: an epoch or
	// an older base awaiting garbage collection. Restore never reads it, so
	// its damage is reported but never Damaged.
	Superseded bool `json:"superseded,omitempty"`
	// Damaged reports whether the entry needs repair (torn tails do not:
	// they were never sealed).
	Damaged bool `json:"damaged,omitempty"`
}

// VerifyChain is a read-only scrub of the chain: it loads whatever
// manifests decode, classifies the ones that do not (torn tail vs interior
// corruption), and reads every record of every segment — stale bases and
// superseded epochs, then the base and the live epochs — through the
// fold's reader (verifySegment), so it makes every check restore makes. It
// mutates nothing; Scrub layers quarantine and repair on top of its
// findings.
func VerifyChain(fs FS) ([]SegmentHealth, error) {
	ch, issues, err := LoadChainLenient(fs)
	if err != nil {
		return nil, err
	}
	var out []SegmentHealth
	for _, is := range issues {
		h := SegmentHealth{Manifest: is.Name, Epoch: is.Epoch, IsBase: is.IsBase}
		if is.TornTail {
			h.Status = StatusTornTail
		} else {
			h.Status, h.Damaged = StatusManifestCorrupt, true
		}
		if is.Err != nil {
			h.Detail = is.Err.Error()
		}
		out = append(out, h)
	}
	check := func(m Manifest, superseded bool) {
		h := SegmentHealth{
			Manifest:   manifestFile(m),
			Epoch:      m.Epoch,
			IsBase:     m.Base != nil,
			Status:     StatusOK,
			PageSize:   m.PageSize,
			PageCount:  m.PageCount,
			TotalBytes: m.TotalBytes,
			Deduped:    m.DedupCount(),
			Superseded: superseded,
		}
		if m.HasSegment() {
			h.Segment = segmentFile(m)
		}
		if err := verifySegment(fs, m); err != nil {
			h.Status = StatusSegmentCorrupt
			if errors.Is(err, iofs.ErrNotExist) {
				h.Status = StatusSegmentMissing
			}
			h.Detail, h.Damaged = err.Error(), !superseded
		}
		out = append(out, h)
	}
	for _, m := range append(ch.StaleBases, ch.Superseded...) {
		check(m, true)
	}
	for _, m := range ch.Live() {
		check(m, false)
	}
	return out, nil
}

// verifySegment reads every record of m's segment in file order — an
// earlier copy of a page written twice included — through the fold's
// reader with no slots to fill, so it makes every check restore makes of a
// record while holding one record at a time, and checks that the segment
// ends at its last record.
func verifySegment(fs FS, m Manifest) error {
	if err := checkPageCount(&m); err != nil || m.PageCount == 0 {
		return err
	}
	picks := make([]pick, len(m.Pages))
	for r, page := range m.Pages {
		picks[r] = pick{page: page, rec: r}
	}
	return foldUnit{m: &m, picks: picks}.read(fs, nil)
}

// QuarantinePrefix is prepended to a quarantined file's name. The prefix
// removes the file from the chain's namespace — the loaders only consider
// epoch-*/base-* names — while preserving its bytes for post-mortems.
const QuarantinePrefix = "quarantine-"

// Quarantine moves a damaged chain file out of the chain's namespace:
// its bytes are copied under QuarantinePrefix and the original removed,
// so a subsequent repair can publish a clean replacement without the
// corrupt bytes shadowing it (or lingering as a plausible-looking file if
// the repair is interrupted).
func Quarantine(fs FS, name string) error {
	src, err := fs.Open(name)
	if err != nil {
		return fmt.Errorf("ckpt: quarantine %s: %w", name, err)
	}
	dst, err := fs.Create(QuarantinePrefix + name)
	if err != nil {
		src.Close()
		return fmt.Errorf("ckpt: quarantine %s: %w", name, err)
	}
	_, err = io.Copy(dst, src)
	src.Close()
	if err != nil {
		Discard(dst)
		return fmt.Errorf("ckpt: quarantine %s: %w", name, err)
	}
	if err := dst.Close(); err != nil {
		return fmt.Errorf("ckpt: quarantine %s: %w", name, err)
	}
	if err := fs.Remove(name); err != nil {
		return fmt.Errorf("ckpt: quarantine %s: %w", name, err)
	}
	return nil
}

// RewriteEpoch rebuilds one sealed epoch from raw page content fetched
// from a redundant tier (peer shards or the PFS mirror): the segment is
// written first, the manifest — the commit point — last, exactly like the
// original seal, so a crash mid-repair leaves the epoch unsealed rather
// than half-repaired and the repair simply reruns. pages holds the raw
// content (the rewritten records are stored uncompressed). old is the
// epoch's manifest while it still decodes, nil once lost: the rewrite
// keeps its dedup annotations only if old is v3, since a v2 ref's FNV-64a
// hash would enter the dedup index as an XXH64 one (refs are never needed
// for restore, so dropping them is safe).
func RewriteEpoch(fs FS, epoch uint64, pageSize int, pages *PageSet, old *Manifest) (Manifest, error) {
	man := Manifest{Epoch: epoch, PageSize: pageSize, Format: FormatV3}
	if old != nil && old.Format >= FormatV3 {
		man.Refs = old.Refs
	}
	if err := writeSegment(fs, &man, pages, compress.None); err != nil {
		return Manifest{}, fmt.Errorf("ckpt: rewrite epoch %d: %w", epoch, err)
	}
	return man, nil
}
