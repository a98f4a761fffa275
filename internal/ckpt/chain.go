package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"strings"

	"repro/internal/compress"
	"repro/internal/util"
)

// Format v2 extends the v1 manifest with per-page content hashes (enabling
// content-addressed dedup: a page whose content matches the newest chain
// entry is recorded as a cheap Ref instead of a segment record) and with
// consolidated base segments written by the background compactor. v1
// repositories remain fully readable: a manifest without a format field is
// treated as v1 and restored exactly as before.
const FormatV2 = 2

// FormatV3 keeps v2's record layout and manifest and changes only the hash:
// record and content hashes are XXH64 where v1 and v2 use FNV-64a. Every
// writer stamps v3; each chain entry is read with the hash its own format
// names, so a v2 chain extended by v3 epochs restores as one chain.
const FormatV3 = 3

// PageRef records one deduplicated page of an epoch: the page's content is
// bit-identical to the physical record it references, so no segment record
// was written. Refs are pure annotations — restore semantics ("newest write
// wins, absent pages keep their older content") already produce the right
// image without reading them — kept for accounting, inspection and for
// rebuilding the dedup index after a restart.
type PageRef struct {
	// Page is the global page ID.
	Page int `json:"page"`
	// Epoch is the epoch whose segment physically holds the content.
	Epoch uint64 `json:"epoch"`
	// Hash is the raw (uncompressed) page content's hash, by the hash of
	// the manifest's Format (see FormatV3).
	Hash uint64 `json:"hash"`
}

// BaseRange marks a manifest as a consolidated base segment covering the
// inclusive epoch range [From, To]: the segment holds the newest content as
// of To of every page written in the range, so restore reads it instead of
// the individual epochs.
type BaseRange struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

func baseSegmentName(from, to uint64) string {
	return fmt.Sprintf("base-%08d-%08d.pages", from, to)
}

func baseManifestName(from, to uint64) string {
	return fmt.Sprintf("base-%08d-%08d.json", from, to)
}

// segmentFile returns the segment file backing a manifest (epoch segment or
// base segment).
func segmentFile(m Manifest) string {
	if m.Base != nil {
		return baseSegmentName(m.Base.From, m.Base.To)
	}
	return segmentName(m.Epoch)
}

// manifestFile returns the manifest file name of a manifest.
func manifestFile(m Manifest) string {
	if m.Base != nil {
		return baseManifestName(m.Base.From, m.Base.To)
	}
	return manifestName(m.Epoch)
}

// contentHash is the hash every writer stamps, both on a record's payload
// and, as the dedup key, on a page's raw content: XXH64, the FormatV3 hash.
// It runs inline with no allocation, since the commit path hashes every page.
func contentHash(data []byte) uint64 { return util.Xxh64(data) }

// hash is the hash of m's format, for checking its records and content
// hashes: XXH64 from FormatV3 on, FNV-64a before.
func (m *Manifest) hash(data []byte) uint64 {
	if m.Format >= FormatV3 {
		return util.Xxh64(data)
	}
	return util.Fnv64a(data)
}

// Chain is the logical state of a repository: the newest committed base (if
// any), the live epochs after it, and the garbage left behind by earlier
// compactions (superseded epochs and stale bases, removable at any time).
type Chain struct {
	// PageSize is the page granularity shared by every chain entry (0 for
	// an empty chain).
	PageSize int
	// Base is the newest committed base manifest, or nil.
	Base *Manifest
	// Epochs are the sealed epochs newer than Base (all sealed epochs when
	// Base is nil), ascending.
	Epochs []Manifest
	// Superseded are sealed epochs covered by Base that have not been
	// garbage-collected yet (a crash between commit and GC leaves them).
	Superseded []Manifest
	// StaleBases are older bases superseded by Base, pending GC.
	StaleBases []Manifest
}

// LastEpoch returns the newest epoch the chain reaches (through live epochs
// or the base), and ok=false for an empty chain.
func (c *Chain) LastEpoch() (uint64, bool) {
	if n := len(c.Epochs); n > 0 {
		return c.Epochs[n-1].Epoch, true
	}
	if c.Base != nil {
		return c.Base.Base.To, true
	}
	return 0, false
}

// Live returns the entries a restore folds, oldest first: the base, then
// every live epoch.
func (c *Chain) Live() []Manifest {
	entries := make([]Manifest, 0, 1+len(c.Epochs))
	if c.Base != nil {
		entries = append(entries, *c.Base)
	}
	return append(entries, c.Epochs...)
}

// LiveSegments counts the live entries that HasSegment; a restore opens
// only those that own the newest copy of some page.
func (c *Chain) LiveSegments() int {
	n := 0
	for _, m := range c.Live() {
		if m.HasSegment() {
			n++
		}
	}
	return n
}

// ChainIssue describes one manifest file that failed to load. TornTail
// marks the benign case: the corrupt manifest's epoch is newer than every
// intact chain entry, so it can only be the in-flight write of a crash —
// the epoch was never durably sealed and restore correctly ignores it.
// Everything else is interior corruption: the chain proves the epoch *was*
// sealed (a newer intact entry exists), so its loss is real damage that
// scrub/repair must fix from a redundant tier.
type ChainIssue struct {
	// Name is the corrupt manifest's file name.
	Name string
	// Epoch is parsed from the file name (a base's To for base manifests).
	Epoch uint64
	// IsBase marks a base manifest (always a torn compaction artifact:
	// an uncommitted base leaves the epochs it would cover intact).
	IsBase bool
	// TornTail marks crash artifacts safe to treat as unsealed.
	TornTail bool
	// Err is the decode failure.
	Err error
}

// parseManifestEpoch extracts the epoch from a chain manifest file name
// (epoch-NNNNNNNN.json, or base-NNNNNNNN-NNNNNNNN.json whose To is the
// epoch). ok=false means the name is not a chain manifest at all.
func parseManifestEpoch(name string) (epoch uint64, isBase bool, ok bool) {
	if n, err := fmt.Sscanf(name, "epoch-%d.json", &epoch); err == nil && n == 1 {
		return epoch, false, true
	}
	var from uint64
	if n, err := fmt.Sscanf(name, "base-%d-%d.json", &from, &epoch); err == nil && n == 2 {
		return epoch, true, true
	}
	return 0, false, false
}

// LoadChain assembles the repository's chain from fs. Crash-recovery
// semantics: a base segment without a manifest (compaction interrupted
// before its commit point) is invisible, a base manifest that fails to
// decode is skipped (the epochs it would have covered are still present,
// so the chain remains restorable), and a corrupt epoch manifest *newer
// than every intact entry* is a torn tail from a mid-crash — ignored as
// unsealed. A corrupt interior epoch manifest is an error naming the
// repair path: the chain proves that epoch was once sealed, so its loss
// cannot be explained away as an unfinished write. A manifest that
// vanishes between List and Open (a concurrent garbage-collection pass
// collected it) is skipped. Manifests that disagree on page size are
// rejected, naming the diverging entry.
func LoadChain(fs FS) (*Chain, error) {
	c, _, err := loadChain(fs, false)
	return c, err
}

// LoadChainLenient is LoadChain without the interior-corruption error: it
// assembles the best chain the intact manifests allow and reports every
// unloadable manifest as a ChainIssue, classified torn-tail or not. Scrub
// and the verify tool use it to inspect a damaged repository that the
// strict loader would refuse.
func LoadChainLenient(fs FS) (*Chain, []ChainIssue, error) {
	return loadChain(fs, true)
}

func loadChain(fs FS, lenient bool) (*Chain, []ChainIssue, error) {
	names, err := fs.List()
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: list: %w", err)
	}
	c := &Chain{}
	var bases []Manifest
	var issues []ChainIssue
	for _, n := range names {
		if !strings.HasSuffix(n, ".json") {
			continue
		}
		epoch, isBase, isChain := parseManifestEpoch(n)
		if !isChain {
			continue
		}
		f, err := fs.Open(n)
		if err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				continue // vanished since List: concurrently collected
			}
			return nil, nil, fmt.Errorf("ckpt: open %s: %w", n, err)
		}
		var m Manifest
		err = json.NewDecoder(f).Decode(&m)
		f.Close()
		if err != nil {
			issues = append(issues, ChainIssue{Name: n, Epoch: epoch, IsBase: isBase, Err: err})
			continue
		}
		if isBase {
			if m.Base == nil {
				continue // not a valid base manifest
			}
			bases = append(bases, m)
		} else {
			c.Epochs = append(c.Epochs, m)
		}
	}
	sortManifests(c.Epochs)
	sortManifests(bases)
	// The newest base (largest To, then largest From) wins; the rest are
	// garbage from earlier compactions.
	for i, b := range bases {
		bc := b
		if c.Base == nil || bc.Base.To > c.Base.Base.To ||
			(bc.Base.To == c.Base.Base.To && bc.Base.From > c.Base.Base.From) {
			if c.Base != nil {
				c.StaleBases = append(c.StaleBases, *c.Base)
			}
			c.Base = &bases[i]
		} else {
			c.StaleBases = append(c.StaleBases, bc)
		}
	}
	if c.Base != nil {
		live := c.Epochs[:0:0]
		for _, m := range c.Epochs {
			if m.Epoch <= c.Base.Base.To {
				c.Superseded = append(c.Superseded, m)
			} else {
				live = append(live, m)
			}
		}
		c.Epochs = live
	}
	// Classify the unloadable manifests now that the intact chain's reach
	// is known. A corrupt base manifest is always an uncommitted compaction
	// artifact (the epochs it would cover are still live). A corrupt epoch
	// manifest newer than every intact entry cannot be proven sealed — it
	// is the torn tail of a crash and restore rightly ignores it. A corrupt
	// epoch manifest at or below the chain's reach was once sealed: real
	// interior damage.
	maxIntact, haveIntact := c.LastEpoch()
	for i := range issues {
		is := &issues[i]
		switch {
		case is.IsBase:
			is.TornTail = true
		case !haveIntact || is.Epoch > maxIntact:
			is.TornTail = true
		case c.Base != nil && is.Epoch <= c.Base.Base.To:
			// Superseded garbage awaiting GC: restore never reads it.
			is.TornTail = true
		default:
			if !lenient {
				return nil, issues, fmt.Errorf(
					"ckpt: manifest %s corrupt (interior epoch %d, chain reaches %d; run scrub to quarantine and repair it from a redundant tier): %w",
					is.Name, is.Epoch, maxIntact, is.Err)
			}
		}
	}
	if err := c.validatePageSize(); err != nil {
		return nil, issues, err
	}
	return c, issues, nil
}

// validatePageSize rejects a chain whose manifests disagree on page size,
// naming the entry that diverged. Folding mixed-granularity epochs would
// silently interleave pages tracked at different offsets.
func (c *Chain) validatePageSize() error {
	check := func(m Manifest, kind string) error {
		if c.PageSize == 0 {
			c.PageSize = m.PageSize
		}
		if m.PageSize != c.PageSize {
			return fmt.Errorf("ckpt: %s %d has page size %d, chain uses %d: mixed-granularity chain is not restorable",
				kind, m.Epoch, m.PageSize, c.PageSize)
		}
		return nil
	}
	if c.Base != nil {
		if err := check(*c.Base, "base ending at epoch"); err != nil {
			return err
		}
	}
	for _, m := range c.Epochs {
		if err := check(m, "epoch"); err != nil {
			return err
		}
	}
	for _, m := range c.Superseded {
		if err := check(m, "superseded epoch"); err != nil {
			return err
		}
	}
	return nil
}

// WriteBase consolidates a folded image into a committed base segment
// covering [from, to]. The write is crash-safe: the segment is written
// first (an unsealed base segment is invisible to LoadChain), and the
// manifest — the commit point — last. pages holds the newest raw content of
// every page as of epoch to; codec compresses the stored records.
// WriteBase does not garbage-collect what the base supersedes; see
// GCSuperseded.
func WriteBase(fs FS, from, to uint64, pageSize int, pages *PageSet, codec uint8) (Manifest, error) {
	man := Manifest{
		Epoch:    to,
		PageSize: pageSize,
		Format:   FormatV3,
		Codec:    codec,
		Base:     &BaseRange{From: from, To: to},
	}
	if err := writeSegment(fs, &man, pages, compress.Codec(codec)); err != nil {
		return Manifest{}, fmt.Errorf("ckpt: base %d-%d: %w", from, to, err)
	}
	return man, nil
}

// GCSuperseded removes the files made obsolete by the chain's committed
// base: superseded epoch segments and manifests, and stale base files. It
// returns the segment bytes reclaimed and the file names removed. Removal
// failures are ignored (a vanished file is the goal; anything else is
// retried by the next pass).
func GCSuperseded(fs FS, c *Chain) (reclaimed int64, removed []string) {
	drop := func(m Manifest) {
		if m.HasSegment() {
			if fs.Remove(segmentFile(m)) == nil {
				reclaimed += m.TotalBytes
				removed = append(removed, segmentFile(m))
			}
		}
		if fs.Remove(manifestFile(m)) == nil {
			removed = append(removed, manifestFile(m))
		}
	}
	for _, m := range c.Superseded {
		drop(m)
	}
	for _, m := range c.StaleBases {
		drop(m)
	}
	return reclaimed, removed
}
