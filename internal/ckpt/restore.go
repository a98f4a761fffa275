package ckpt

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/sim"
	"repro/internal/util"
)

// Image is a restored memory image: the newest committed content of every
// page that was ever checkpointed. Pages absent from the set were never
// dirtied before the last sealed epoch and therefore hold their initial
// (zero) content, matching a freshly allocated protected region.
type Image struct {
	PageSize int
	Epoch    uint64 // newest sealed epoch folded into the image
	Pages    PageSet
	// SegmentsRead counts the segments the restore actually parsed; with a
	// compacted chain it is bounded by the compaction depth rather than the
	// run length.
	SegmentsRead int
}

// sharedZero returns a read-only all-zero slice of at least n bytes,
// grown (and republished) on demand. Callers must never write to it.
var sharedZero atomic.Pointer[[]byte]

func zeroPage(n int) []byte {
	if p := sharedZero.Load(); p != nil && len(*p) >= n {
		return (*p)[:n:n]
	}
	b := make([]byte, n)
	sharedZero.Store(&b)
	return b
}

// PageOr returns the image content of page, or a shared read-only zero
// page if it was never checkpointed. The zero page is shared by every
// caller and every Image: treat the returned slice as immutable (copy it
// before writing). Misses are allocation-free, so sweeping a sparse image
// page by page costs nothing beyond the lookups.
func (im *Image) PageOr(page int) []byte {
	if d, ok := im.Pages.Get(page); ok {
		return d
	}
	return zeroPage(im.PageSize)
}

// EpochInfo summarizes a sealed epoch or base for inspection tools.
type EpochInfo struct {
	Manifest
	SegmentOK bool   // segment parsed and all hashes verified
	Err       string // parse/verification failure, if any
	// Superseded marks entries covered by a newer committed base: they are
	// ignored by restore and reclaimable by garbage collection.
	Superseded bool
}

// scanSegment parses one manifest's segment (epoch or base), verifying every
// record's framing and payload hash and decoding transparently, and calls
// visit for every record in file order. Verification passes a visit that
// keeps nothing, so a scrub never holds more than one record.
func scanSegment(fs FS, m Manifest, visit func(page int, data []byte)) error {
	if m.PageCount == 0 {
		return nil
	}
	f, err := fs.Open(segmentFile(m))
	if err != nil {
		return fmt.Errorf("ckpt: epoch %d sealed but segment missing: %w", m.Epoch, err)
	}
	defer f.Close()
	var hdr [20]byte
	// With a codec, the encoded payload is scratch (only the decoded copy
	// reaches visit), so one recycled buffer serves every record; without
	// one, the payload itself is handed to visit, which may retain it, so
	// it must be freshly allocated per record.
	var scratch []byte
	count := 0
	for {
		_, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("ckpt: epoch %d: truncated record header: %w", m.Epoch, err)
		}
		if binary.LittleEndian.Uint32(hdr[0:]) != recordMagic {
			return fmt.Errorf("ckpt: epoch %d: bad record magic", m.Epoch)
		}
		page := int(binary.LittleEndian.Uint32(hdr[4:]))
		size := int(binary.LittleEndian.Uint32(hdr[8:]))
		want := binary.LittleEndian.Uint64(hdr[12:])
		// Without a codec a record payload is exactly one page; compressed
		// payloads vary but may exceed the page size only by the one-byte
		// codec header (the verbatim-fallback encoding). The codec decoder
		// enforces its exact output size below.
		if m.Codec == 0 && size != m.PageSize {
			return fmt.Errorf("ckpt: epoch %d page %d: record size %d != page size %d", m.Epoch, page, size, m.PageSize)
		}
		if size < 0 || size > m.PageSize+1 {
			return fmt.Errorf("ckpt: epoch %d page %d: invalid size %d", m.Epoch, page, size)
		}
		var data []byte
		if m.Codec != 0 {
			if cap(scratch) < size {
				scratch = make([]byte, m.PageSize+1)
			}
			data = scratch[:size]
		} else {
			data = make([]byte, size)
		}
		if _, err := io.ReadFull(f, data); err != nil {
			return fmt.Errorf("ckpt: epoch %d page %d: truncated payload: %w", m.Epoch, page, err)
		}
		if util.Fnv64a(data) != want {
			return fmt.Errorf("ckpt: epoch %d page %d: hash mismatch", m.Epoch, page)
		}
		if m.Codec != 0 {
			decoded, err := compress.Decode(data, m.PageSize)
			if err != nil {
				return fmt.Errorf("ckpt: epoch %d page %d: %w", m.Epoch, page, err)
			}
			data = decoded
		}
		visit(page, data)
		count++
	}
	if count != m.PageCount {
		return fmt.Errorf("ckpt: epoch %d: segment has %d records, manifest says %d", m.Epoch, count, m.PageCount)
	}
	return nil
}

// readSegment reads one manifest's segment (epoch or base) back in full as
// a PageSet. Records are in flush order; they are sorted once here.
func readSegment(fs FS, m Manifest) (PageSet, error) {
	// len(m.Pages), not m.PageCount, sizes the set: it is bounded by the
	// manifest file actually read, whatever the count field claims.
	pages := NewPageSet(len(m.Pages))
	if err := scanSegment(fs, m, pages.Append); err != nil {
		return PageSet{}, err
	}
	pages.Sort()
	return pages, nil
}

// RestoreOptions tunes Restore.
type RestoreOptions struct {
	// Workers is the number of concurrent segment readers: each parses,
	// hash-verifies and codec-decodes whole segments (the chain's base and
	// epochs) while the caller folds finished segments into the image in
	// strict chain order, so the result is bit-identical for any width.
	// 0 picks DefaultRestoreWorkers.
	Workers int
}

// DefaultRestoreWorkers is the restore width used when the caller names
// none: min(GOMAXPROCS, 8).
func DefaultRestoreWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// Restore folds the chain (newest committed base, then every live sealed
// epoch, oldest to newest, newest content wins) into a memory image.
// Unsealed segments — a checkpoint or compaction interrupted by a crash —
// are ignored, which is exactly the recovery semantics of asynchronous
// checkpointing: the restart point is the last *completed* checkpoint. With
// a compacted chain the fold reads at most depth segments (the base plus
// the epochs after it) instead of the whole history. Use RestoreWith to
// control the number of segment readers.
func Restore(fs FS) (*Image, error) {
	return RestoreWith(fs, RestoreOptions{})
}

// RestoreWith is Restore with explicit options.
func RestoreWith(fs FS, opt RestoreOptions) (*Image, error) {
	ch, err := LoadChain(fs)
	if err != nil {
		return nil, err
	}
	last, ok := ch.LastEpoch()
	if !ok {
		return nil, fmt.Errorf("ckpt: no sealed epochs to restore from")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = DefaultRestoreWorkers()
	}
	pages, segments, err := FoldSegments(fs, ch.Live(), workers)
	if err != nil {
		return nil, err
	}
	return &Image{PageSize: ch.PageSize, Epoch: last, Pages: pages, SegmentsRead: segments}, nil
}

// FoldSegments is the one chain fold: it reads entries — a base and the
// epochs after it, oldest first — on up to workers concurrent readers and
// merges them in that order, newest content winning, so the result is the
// same for any width. The first failing entry in chain order is the error.
// It also returns how many segments held records. Restore and the compactor
// both fold with it.
func FoldSegments(fs FS, entries []Manifest, workers int) (PageSet, int, error) {
	var pages PageSet
	segments := 0
	err := sim.OrderedFanout(sim.NewRealEnv(), len(entries), workers,
		func(i int) (PageSet, error) { return readSegment(fs, entries[i]) },
		func(i int, seg PageSet) error {
			if entries[i].PageCount > 0 {
				segments++
			}
			pages.Merge(&seg)
			return nil
		})
	if err != nil {
		return PageSet{}, 0, err
	}
	return pages, segments, nil
}

// ListSealed returns the manifests of all sealed epochs on fs, sorted by
// epoch, as LoadChain classifies them: a torn tail is not sealed, interior
// corruption and mixed page sizes are errors. Multi-level tiers use it to
// enumerate what they hold. Epochs already folded into a base (and
// garbage-collected) are absent; ones a base covers but that are still on
// disk are listed.
func ListSealed(fs FS) ([]Manifest, error) {
	ch, err := LoadChain(fs)
	if err != nil {
		return nil, err
	}
	return append(ch.Superseded, ch.Epochs...), nil
}

// ReadManifest returns the manifest of one sealed epoch, or an error when
// the epoch is not sealed on fs.
func ReadManifest(fs FS, epoch uint64) (Manifest, error) {
	m, err := decodeManifestFile(fs, manifestName(epoch))
	if err != nil {
		return Manifest{}, fmt.Errorf("ckpt: epoch %d not sealed: %w", epoch, err)
	}
	return m, nil
}

// EpochPages reads one sealed epoch back in full, verifying record
// integrity, and returns its manifest plus the set of its *physical*
// records (deduplicated pages are listed in the manifest's Refs but carry
// no data — the content they reference is already in the chain). The
// multi-level drainer uses it to promote a sealed epoch from the fast tier
// to slower, more resilient tiers.
func EpochPages(fs FS, epoch uint64) (Manifest, PageSet, error) {
	m, err := ReadManifest(fs, epoch)
	if err != nil {
		return Manifest{}, PageSet{}, err
	}
	pages, err := readSegment(fs, m)
	if err != nil {
		return Manifest{}, PageSet{}, err
	}
	return m, pages, nil
}

// LastSealedEpoch returns the newest sealed epoch number — through live
// epochs or a committed base — or ok=false when the repository holds no
// sealed state. Restarted runtimes use it to continue epoch numbering; it
// must account for bases because a fully compacted chain has no epoch
// files left, and restarting the numbering below the base would corrupt
// the chain.
func LastSealedEpoch(fs FS) (epoch uint64, ok bool, err error) {
	ch, err := LoadChain(fs)
	if err != nil {
		return 0, false, err
	}
	epoch, ok = ch.LastEpoch()
	return epoch, ok, nil
}

// Inspect verifies every chain entry — live epochs, the committed base, and
// not-yet-collected superseded entries — and reports per-entry health; it
// is the engine behind cmd/ckpt-inspect.
func Inspect(fs FS) ([]EpochInfo, error) {
	ch, err := LoadChain(fs)
	if err != nil {
		return nil, err
	}
	var infos []EpochInfo
	add := func(m Manifest, superseded bool) {
		info := EpochInfo{Manifest: m, SegmentOK: true, Superseded: superseded}
		if err := scanSegment(fs, m, func(int, []byte) {}); err != nil {
			info.SegmentOK = false
			info.Err = err.Error()
		}
		infos = append(infos, info)
	}
	for _, m := range ch.StaleBases {
		add(m, true)
	}
	for _, m := range ch.Superseded {
		add(m, true)
	}
	if ch.Base != nil {
		add(*ch.Base, false)
	}
	for _, m := range ch.Epochs {
		add(m, false)
	}
	return infos, nil
}
