package ckpt

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/sim"
)

// Image is a restored memory image: the newest committed content of every
// page that was ever checkpointed. Pages absent from the set were never
// dirtied before the last sealed epoch and therefore hold their initial
// (zero) content, matching a freshly allocated protected region.
type Image struct {
	PageSize int
	Epoch    uint64 // newest sealed epoch folded into the image
	Pages    PageSet
	// SegmentsRead counts the segments that owned at least one winner — the
	// newest copy of some page — which are the only ones the restore opens.
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

// recordHeaderSize is the framing every segment record starts with (see
// the record format in repo.go).
const recordHeaderSize = 20

// parseRecordHeader checks one record header of m's segment — magic, and a
// payload size m's codec allows — and returns the page it names, the
// payload size and the payload hash. Without a codec a payload is exactly
// one page; compressed payloads vary but may exceed the page size only by
// the one-byte codec header (the verbatim-fallback encoding). The codec
// decoder enforces its exact output size.
func parseRecordHeader(m *Manifest, hdr []byte) (page, size int, sum uint64, err error) {
	if binary.LittleEndian.Uint32(hdr[0:]) != recordMagic {
		return 0, 0, 0, errors.New("bad record magic")
	}
	page = int(binary.LittleEndian.Uint32(hdr[4:]))
	size = int(binary.LittleEndian.Uint32(hdr[8:]))
	sum = binary.LittleEndian.Uint64(hdr[12:])
	if m.Codec == 0 && size != m.PageSize {
		return page, size, sum, fmt.Errorf("record size %d != page size %d", size, m.PageSize)
	}
	if size < 0 || size > m.PageSize+1 {
		return page, size, sum, fmt.Errorf("invalid record size %d", size)
	}
	return page, size, sum, nil
}

// RestoreOptions tunes Restore.
type RestoreOptions struct {
	// Workers is the number of concurrent segment readers: each reads,
	// hash-verifies and codec-decodes the winning records of one segment,
	// or of one chunk of a large raw segment, into the image's own slots,
	// so the result is bit-identical for any width. 0 picks
	// DefaultRestoreWorkers.
	Workers int
}

// DefaultRestoreWorkers is the restore width used when the caller names
// none: min(GOMAXPROCS, 8).
func DefaultRestoreWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// Restore folds the chain (newest committed base, then every live sealed
// epoch, newest content wins) into a memory image. Unsealed segments — a
// checkpoint or compaction interrupted by a crash — are ignored, which is
// exactly the recovery semantics of asynchronous checkpointing: the restart
// point is the last *completed* checkpoint. The fold reads only the newest
// copy of each page (FoldChain), so its cost is the image's, not the
// chain's. Use RestoreWith to control the number of segment readers.
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
	pages, segments, err := FoldChain(fs, ch.Live(), workers)
	if err != nil {
		return nil, err
	}
	return &Image{PageSize: ch.PageSize, Epoch: last, Pages: pages, SegmentsRead: segments}, nil
}

// FoldChain is the one chain fold and the one segment reader: it folds
// entries — a base and the epochs after it, oldest first — into the newest
// content of every page, reading and verifying only that newest copy, on up
// to workers concurrent readers; the result is the same for any width. It
// returns how many segments owned at least one winner: the only ones it
// opens. Restore and the compactor fold with it, and a fold of one entry is
// a full read of it (the drain's read-back of an epoch or a base).
//
// The manifests alone decide the winners (pickWinners). Every record the
// fold uses is verified — framing, size, payload hash by the entry's own
// format (so one fold reads a mixed v2→v3 chain), decode — and also
// against its manifest: the header names the manifest's page, and, for a
// raw record under a v2 or later manifest, the record hash is the
// manifest's content hash. A bad winner fails the fold, naming its epoch and page; older
// content never stands in for it. Records a newer copy supersedes are
// neither hashed nor decoded; VerifyChain reads them with the same checks.
func FoldChain(fs FS, entries []Manifest, workers int) (PageSet, int, error) {
	picks, ids, err := pickWinners(entries)
	if err != nil {
		return PageSet{}, 0, err
	}
	pages := make([][]byte, len(ids))
	units, segments := foldUnits(entries, picks, workers)
	// Each unit fills only its own slots, so there is nothing to merge: the
	// fold step is empty and the first failing unit in chain order is the
	// error.
	err = sim.OrderedFanout(sim.NewRealEnv(), len(units), workers,
		func(i int) (struct{}, error) { return struct{}{}, units[i].read(fs, pages) },
		func(int, struct{}) error { return nil })
	if err != nil {
		return PageSet{}, 0, err
	}
	return PageSet{ids: ids, pages: pages}, segments, nil
}

// pick is one winner of a fold: record rec of entries[entry]'s segment is
// the newest physical copy of page, and lands in slot of the image.
type pick struct{ page, slot, entry, rec int }

// pickWinners is the fold's manifest pass. It walks the entries newest
// first, and each manifest's Pages last to first: a segment's records are in
// manifest order (segmentWriter.append adds both under one lock), and a page
// written twice in one epoch keeps its later record. The first copy seen of
// a page wins. Refs need nothing: a deduplicated page's content is its
// newest physical record. ids are the image's page ids, ascending; the
// picks come back in chain order — by entry, then record — carrying their
// image slot.
func pickWinners(entries []Manifest) (picks []pick, ids []int, err error) {
	hint := 0
	for i := range entries {
		m := &entries[i]
		if err := checkPageCount(m); err != nil {
			return nil, nil, err
		}
		hint = max(hint, len(m.Pages))
	}
	seen := make(map[int]struct{}, hint)
	picks = make([]pick, 0, hint)
	for e := len(entries) - 1; e >= 0; e-- {
		pages := entries[e].Pages
		for r := len(pages) - 1; r >= 0; r-- {
			if _, ok := seen[pages[r]]; !ok {
				seen[pages[r]] = struct{}{}
				picks = append(picks, pick{page: pages[r], entry: e, rec: r})
			}
		}
	}
	slices.SortFunc(picks, func(a, b pick) int { return cmp.Compare(a.page, b.page) })
	ids = make([]int, len(picks))
	for s := range picks {
		ids[s], picks[s].slot = picks[s].page, s
	}
	slices.SortFunc(picks, func(a, b pick) int {
		return cmp.Or(cmp.Compare(a.entry, b.entry), cmp.Compare(a.rec, b.rec))
	})
	return picks, ids, nil
}

// checkPageCount rejects a manifest whose page list and page count
// disagree: readers address a record by its index in the list.
func checkPageCount(m *Manifest) error {
	if len(m.Pages) != m.PageCount {
		return fmt.Errorf("ckpt: epoch %d: manifest lists %d pages, page count %d", m.Epoch, len(m.Pages), m.PageCount)
	}
	return nil
}

// minUnitRecords is the smallest chunk a raw segment's winners are split
// into, so that a chunk's open and seek stay small beside its reads while a
// single large segment — a full rewrite, a base — still spreads over every
// reader.
const minUnitRecords = 256

// foldUnit is one load of a fold: winners of one segment, ascending.
type foldUnit struct {
	m     *Manifest
	picks []pick
}

// foldUnits cuts the chain-ordered picks into loads: one per segment that
// owns a winner, and a raw segment's winners further into chunks of about
// 1/workers of the image. A coded segment stays whole: its record offsets
// are known only by walking its headers from the start. segments counts the
// segments that own a winner.
func foldUnits(entries []Manifest, picks []pick, workers int) (units []foldUnit, segments int) {
	chunk := max(minUnitRecords, (len(picks)+workers-1)/max(workers, 1))
	for len(picks) > 0 {
		m := &entries[picks[0].entry]
		n := 1
		for n < len(picks) && picks[n].entry == picks[0].entry {
			n++
		}
		own := picks[:n]
		picks = picks[n:]
		segments++
		for len(own) > 0 {
			k := len(own)
			if m.Codec == 0 {
				k = min(k, chunk)
			}
			units = append(units, foldUnit{m: m, picks: own[:k]})
			own = own[k:]
		}
	}
	return units, segments
}

// read verifies the unit's records and stores each in its own slot of
// pages. Raw records all have one size, so the cursor goes straight to each
// one; a coded segment's records are found by walking its headers from the
// start, passing over the payloads of records the unit does not use.
// Adjacent records share the cursor's buffered reads. With pages nil the
// read is a verification (verifySegment): it keeps no record and checks
// that the segment ends at the unit's last record.
func (u foldUnit) read(fs FS, pages [][]byte) error {
	m := u.m
	f, err := fs.Open(segmentFile(*m))
	if err != nil {
		return fmt.Errorf("ckpt: epoch %d sealed but segment missing: %w", m.Epoch, err)
	}
	defer f.Close()
	c := segmentCursor{f: f, br: bufio.NewReaderSize(f, segmentBufSize)}
	var scratch []byte // payloads nothing keeps; see record
	rec := 0
	for _, p := range u.picks {
		if m.Codec == 0 {
			rec = p.rec
			err = c.seekTo(int64(rec) * int64(recordHeaderSize+m.PageSize))
		}
		for ; err == nil && rec < p.rec; rec++ {
			var size int
			if _, size, _, err = c.header(m); err == nil {
				err = c.skip(int64(size))
			}
			if err != nil {
				err = fmt.Errorf("record %d: %w", rec, err)
			}
		}
		if err == nil {
			var data []byte
			data, err = u.record(&c, p, &scratch, pages != nil)
			if pages != nil {
				pages[p.slot] = data
			}
			rec++
		}
		if err != nil {
			return fmt.Errorf("ckpt: epoch %d page %d: %w", m.Epoch, p.page, err)
		}
	}
	if pages != nil {
		return nil
	}
	switch _, err := c.br.ReadByte(); {
	case err == io.EOF:
		return nil
	case err == nil:
		return fmt.Errorf("ckpt: epoch %d: segment goes on past its %d records", m.Epoch, len(u.picks))
	default:
		return fmt.Errorf("ckpt: epoch %d: %w", m.Epoch, err)
	}
}

// record reads and verifies the record at the cursor, pick p: framing and
// size, that the header names the manifest's page, the payload hash by the
// manifest's format, the decode, and, for a raw record, the manifest's
// content hash. A page the
// caller keeps comes back in its own allocation, so that a set never pins a
// segment; a payload nothing keeps — a coded one, or any record of a
// verification — goes through *scratch, allocated once per read.
func (u foldUnit) record(c *segmentCursor, p pick, scratch *[]byte, keep bool) ([]byte, error) {
	m := u.m
	page, size, sum, err := c.header(m)
	if err != nil {
		return nil, err
	}
	if page != p.page {
		return nil, fmt.Errorf("record %d holds page %d, manifest says %d", p.rec, page, p.page)
	}
	var data []byte
	if m.Codec == 0 && keep {
		data = make([]byte, size) // the payload is the page
	} else {
		if cap(*scratch) < size {
			*scratch = make([]byte, m.PageSize+1)
		}
		data = (*scratch)[:size]
	}
	if err := c.read(data); err != nil {
		return nil, fmt.Errorf("truncated payload: %w", err)
	}
	if m.hash(data) != sum {
		return nil, errors.New("hash mismatch")
	}
	if m.Codec != 0 {
		return compress.Decode(data, m.PageSize)
	}
	// A raw record's hash is its content hash (both by m's format), so
	// checking it against the manifest's costs nothing. A coded record's would cost a second pass
	// over the decoded page; its payload hash and the decoder's exact
	// output size cover it.
	if m.Format >= FormatV2 && len(m.Hashes) == len(m.Pages) && sum != m.Hashes[p.rec] {
		return nil, errors.New("content does not match the manifest's hash")
	}
	return data, nil
}

// segmentCursor reads forward through one open segment and passes over
// what the fold does not use without reading it where it can: inside the
// read buffer, or by seeking when the file is an io.Seeker. Only otherwise
// does it read through.
type segmentCursor struct {
	f   io.Reader
	br  *bufio.Reader
	pos int64 // offset of the next byte the cursor yields
	hdr [recordHeaderSize]byte
}

func (c *segmentCursor) read(p []byte) error {
	n, err := io.ReadFull(c.br, p)
	c.pos += int64(n)
	return err
}

// header reads and checks the record header at the cursor.
func (c *segmentCursor) header(m *Manifest) (page, size int, sum uint64, err error) {
	if err := c.read(c.hdr[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("truncated record header: %w", err)
	}
	return parseRecordHeader(m, c.hdr[:])
}

func (c *segmentCursor) seekTo(off int64) error { return c.skip(off - c.pos) }

// skip moves n >= 0 bytes forward.
func (c *segmentCursor) skip(n int64) error {
	c.pos += n
	if s, ok := c.f.(io.Seeker); ok && n > int64(c.br.Buffered()) {
		c.br.Reset(c.f)
		_, err := s.Seek(c.pos, io.SeekStart)
		return err
	}
	if _, err := c.br.Discard(int(n)); err != nil {
		return fmt.Errorf("truncated segment: %w", err)
	}
	return nil
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
