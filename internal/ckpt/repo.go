package ckpt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/obs"
)

// Record format inside epoch-%08d.pages (and base-%08d-%08d.pages):
//
//	magic   uint32  'AICP'
//	page    uint32
//	size    uint32  (payload bytes)
//	hash    uint64  (of payload: XXH64 from FormatV3 on, FNV-64a before)
//	payload [size]byte
//
// The manifest epoch-%08d.json is written when the epoch is sealed and is
// the commit point: epochs without a manifest are ignored on restore.

const recordMagic = 0x41494350 // "AICP"

// recordSampleEvery is the WritePage latency-sampling interval: one page in
// every recordSampleEvery pays the two clock reads and the journal record
// for RecordWriteNs / StageCompress / StageDedup. The repository sits
// inside the core committer's CommitWriteNs measurement, which stays exact
// per page, so sampling here loses no end-to-end latency fidelity — it
// only thins the duplicated inner timer to keep the per-page metric load
// within the <2% commit-overhead budget.
const recordSampleEvery = 8

func segmentName(epoch uint64) string  { return fmt.Sprintf("epoch-%08d.pages", epoch) }
func manifestName(epoch uint64) string { return fmt.Sprintf("epoch-%08d.json", epoch) }

// Manifest describes one sealed epoch (or, with Base set, one consolidated
// base segment).
type Manifest struct {
	Epoch      uint64 `json:"epoch"`
	PageSize   int    `json:"page_size"`
	PageCount  int    `json:"page_count"`
	TotalBytes int64  `json:"total_bytes"`
	// Codec names the compression codec applied to every record payload
	// of the epoch (0 = none); restore decodes transparently.
	Codec uint8 `json:"codec,omitempty"`
	Pages []int `json:"pages"`
	// Format is the manifest format version: 0 (absent) is the v1 format,
	// FormatV2 adds Hashes, Refs and Base, FormatV3 changes their hash and
	// the records' from FNV-64a to XXH64. It picks the hash the entry is
	// read with.
	Format int `json:"format,omitempty"`
	// Hashes holds the hash (by Format) of the raw (uncompressed) content
	// of Pages[i]; the dedup index is rebuilt from v3 Hashes after a
	// restart.
	Hashes []uint64 `json:"hashes,omitempty"`
	// Refs lists the pages of the epoch elided by content-addressed dedup:
	// their content is bit-identical to an earlier physical record.
	Refs []PageRef `json:"refs,omitempty"`
	// Base marks a consolidated base segment covering an epoch range.
	Base *BaseRange `json:"base,omitempty"`
}

// DedupCount returns the number of pages the epoch elided via dedup.
func (m *Manifest) DedupCount() int { return len(m.Refs) }

// HasSegment reports whether the entry has a segment file: a base always
// does, an epoch only if it stored at least one physical record.
func (m *Manifest) HasSegment() bool { return m.PageCount > 0 || m.Base != nil }

// segmentBufSize is the size of a segment writer's one buffer, and so of
// every write(2) a segment receives. 32 KiB turns eight 4 KiB records into
// one system call, which is nearly all there is to gain: a bare
// write/fsync/rename loop on the benchmark host's ext4 seals a 64 MiB file
// in 98 ms from 4 KiB chunks, 49 ms from 32 KiB, 44 ms from 256 KiB. It is
// a constant because larger is measurably worse where it counts. Inside the
// tiers-failover process, runs alternating in the same half hour, the 64 MiB
// base spent 16-21 ms in write(2) in 8 of 8 runs with 32 KiB chunks (34-50
// with 4 KiB) but 145-250 ms in 6 of 8 with 256 KiB (13-16 in the other
// two; 64 KiB: 4 slow runs of 12), and the bare loop with 1 MiB chunks took
// 440-480 ms twice in 12. The cause was not pinned down — 32 KiB is the
// largest write the page cache serves with order-3 folios, the largest
// order the allocator caches per CPU — so the measurement is the reason.
const segmentBufSize = 32 << 10

// segmentWriter appends self-checking records to one segment file at a
// time through one buffer it keeps across segments. The repository owns one
// for its lifetime (an epoch's committers share it); writeSegment uses one
// per call. f changes only while no append can be in flight — the
// repository's epoch barrier — so only the buffer needs the lock.
type segmentWriter struct {
	f io.WriteCloser // open segment, nil between segments

	mu  sync.Mutex
	buf *bufio.Writer //aickpt:guardedby mu
	// hdr is record-header scratch: a stack header would escape into the
	// file's Write on a bufio pass-through, one heap allocation per record.
	hdr [20]byte //aickpt:guardedby mu
}

// reset points the writer at a new segment file, dropping whatever an
// abandoned segment left in the buffer along with its sticky error.
func (w *segmentWriter) reset(f io.WriteCloser) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f = f
	if w.buf == nil {
		w.buf = bufio.NewWriterSize(f, segmentBufSize)
	} else {
		w.buf.Reset(f)
	}
}

// append adds one record and its manifest entry in one critical section, so
// file order is manifest order for any number of concurrent callers. The
// one rule of this lock: nothing runs under it but the header store and the
// copy into the buffer (and the buffer's own flush when it fills). payload
// is already codec-encoded, recHash its contentHash and rawHash that of the
// page before encoding — the callers hash, and for codec None hash once.
// payload is not retained.
func (w *segmentWriter) append(man *Manifest, page int, payload []byte, recHash, rawHash uint64) error {
	w.mu.Lock()
	hdr := w.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:], recordMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(page))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[12:], recHash)
	_, err := w.buf.Write(hdr)
	if err == nil {
		_, err = w.buf.Write(payload)
	}
	if err == nil {
		man.PageCount++
		man.TotalBytes += int64(len(hdr)) + int64(len(payload))
		man.Pages = append(man.Pages, page)
		man.Hashes = append(man.Hashes, rawHash)
	}
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	return nil
}

// seal is the commit protocol, in its one place: flush and publish the
// segment if one is open (under the FS contract the Close is the publish),
// then publish the manifest — the commit point. A flush failure discards
// the file unpublished: a half-flushed segment must never become visible.
// Whatever the outcome, no segment is open afterwards. m may be nil.
func (w *segmentWriter) seal(fs FS, man *Manifest, m *obs.Metrics) error {
	if f := w.f; f != nil {
		w.f = nil
		w.mu.Lock()
		err := w.buf.Flush()
		w.mu.Unlock()
		if err != nil {
			Discard(f)
			return fmt.Errorf("flush segment: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("publish segment: %w", err)
		}
	}
	mstart := m.Now()
	if err := writeManifestFile(fs, manifestFile(*man), man); err != nil {
		return err
	}
	if m != nil {
		m.ManifestWriteNs.Observe(int64(m.Now() - mstart))
	}
	return nil
}

// abort abandons the open segment, if any, unpublished.
func (w *segmentWriter) abort() {
	Discard(w.f)
	w.f = nil
}

// writeSegment seals a whole page set at once — a compacted base or a
// repaired epoch: every page of pages becomes a record of man's segment
// (none is created for an epoch without pages), then the manifest commits
// it. A crash or failure before the manifest leaves at most an invisible
// segment, so the caller simply reruns.
func writeSegment(fs FS, man *Manifest, pages *PageSet, codec compress.Codec) error {
	var w segmentWriter
	if pages.Len() > 0 || man.Base != nil {
		f, err := fs.Create(segmentFile(*man))
		if err != nil {
			return fmt.Errorf("create segment: %w", err)
		}
		w.reset(f)
	}
	var enc []byte // codec output, reused page after page: append copies it out
	for id, data := range pages.All() {
		rawHash := contentHash(data)
		payload, recHash := data, rawHash
		if codec != compress.None {
			enc = compress.EncodeInto(codec, data, enc)
			payload, recHash = enc, contentHash(enc)
		}
		if err := w.append(man, id, payload, recHash, rawHash); err != nil {
			w.abort()
			return fmt.Errorf("page %d: %w", id, err)
		}
	}
	return w.seal(fs, man, nil)
}

// payloadPool recycles codec output buffers across pages and epochs. A
// buffer belongs to the WritePage call that took it and goes back before
// that call returns: append copies the record out.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// writeManifestFile encodes a manifest to name; closing the file is the
// commit point of the epoch or base it describes.
func writeManifestFile(fs FS, name string, m *Manifest) error {
	f, err := fs.Create(name)
	if err != nil {
		return fmt.Errorf("create manifest: %w", err)
	}
	if err := json.NewEncoder(f).Encode(m); err != nil {
		Discard(f)
		return fmt.Errorf("encode manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("publish manifest: %w", err)
	}
	return nil
}

func decodeManifestFile(fs FS, name string) (Manifest, error) {
	f, err := fs.Open(name)
	if err != nil {
		return Manifest{}, fmt.Errorf("ckpt: open %s: %w", name, err)
	}
	defer f.Close()
	var m Manifest
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("ckpt: manifest %s corrupt: %w", name, err)
	}
	return m, nil
}

func sortManifests(ms []Manifest) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Epoch < ms[j].Epoch })
}

// pageIdx is one dedup-index entry: the newest committed content of a page.
type pageIdx struct {
	hash    uint64 // contentHash of the raw content (valid if hasHash)
	epoch   uint64 // epoch whose segment physically holds it
	hasHash bool   // false for content recorded by a v1 (no hash) or v2 (FNV-64a) manifest
}

// DedupStats counts the repository's content-addressed dedup activity since
// it was opened. Counters cover sealed epochs only: an epoch's activity
// becomes visible when EndEpoch commits it and is dropped if the epoch is
// discarded, so the totals always describe bytes a restore can actually
// read.
type DedupStats struct {
	// PagesStored / BytesStored count physical segment records written.
	PagesStored int
	BytesStored int64
	// PagesDeduped / BytesDeduped count page writes elided because the
	// content matched the newest chain entry (recorded as Refs).
	PagesDeduped int
	BytesDeduped int64
}

// Repository stores checkpoint epochs on an FS. It implements
// storage.Backend so the page manager can commit straight into it, and its
// write path is concurrency-safe: any number of committer workers may call
// WritePage for the open epoch simultaneously (hashing and encoding happen
// outside every lock; one locked append per record puts it in the segment
// buffer and the manifest), with EndEpoch acting as the epoch's barrier.
// The repository starts no goroutine.
//
// Repositories write format-v3 manifests: every stored page carries a
// content hash, and pages whose content is bit-identical to the newest
// chain entry are deduplicated — recorded as a manifest Ref instead of a
// segment record. The dedup index is rebuilt from the chain's manifests on
// first use, so a restarted process keeps deduplicating against the
// existing chain. Dedup trusts the 64-bit XXH64 content hash (as in
// hash-based differential checkpointing); a collision between two distinct
// page images is vanishingly unlikely (~2^-64 per pair) but not impossible.
type Repository struct {
	fs       FS
	pageSize int
	codec    compress.Codec
	dedup    bool
	obs      *obs.Metrics // nil: observability disabled

	// recordTick drives 1-in-recordSampleEvery sampling of the WritePage
	// latency timer and per-page trace events. Byte and dedup counters
	// stay exact on every page; only the clock reads and journal records
	// are sampled, keeping the repository's share of the per-page metric
	// load to one atomic increment on most pages.
	recordTick atomic.Uint64

	// seg is the one segment writer; seg.f is guarded by mu (non-nil from
	// the open epoch's first physical record until its seal or discard).
	seg segmentWriter

	mu sync.Mutex
	// curMan is the open epoch's manifest. Between epochs it keeps the
	// last epoch's Pages/Hashes/Refs arrays, emptied, so steady-state
	// epochs append without growing the heap. While the epoch is open,
	// Pages/Hashes/PageCount/TotalBytes belong to seg.append's lock.
	curMan  Manifest //aickpt:guardedby mu
	curOpen bool     //aickpt:guardedby mu

	index    map[int]pageIdx //aickpt:guardedby mu (newest sealed content per page; nil until the chain is loaded)
	pending  map[int]pageIdx //aickpt:guardedby mu (open epoch's pages; merged into index at seal, emptied at every epoch end)
	stats    DedupStats      //aickpt:guardedby mu (sealed epochs only)
	curStats DedupStats      //aickpt:guardedby mu (open epoch; folded into stats at seal, dropped on discard)
}

// discardEpochLocked ends the open epoch, if any, in the one way every path
// ends it — seal, failed seal, Abort: a segment still unpublished is
// abandoned (an unsealed epoch is invisible to restore, which is the
// crash-consistency contract), the epoch's counters and pending index
// entries are dropped, and the manifest's arrays are emptied for reuse.
// After a successful seal only the bookkeeping is left to drop. Call only
// once the manifest is encoded or given up: the arrays will be overwritten.
func (r *Repository) discardEpochLocked() {
	r.seg.abort()
	r.curOpen = false
	r.curStats = DedupStats{}
	clear(r.pending)
	r.curMan.Pages, r.curMan.Hashes, r.curMan.Refs = r.curMan.Pages[:0], r.curMan.Hashes[:0], r.curMan.Refs[:0]
}

// NewRepository returns a repository writing pageSize-sized pages to fs,
// with content-addressed dedup enabled.
func NewRepository(fs FS, pageSize int) *Repository {
	if pageSize <= 0 {
		panic("ckpt: non-positive page size")
	}
	return &Repository{fs: fs, pageSize: pageSize, dedup: true}
}

// SetCodec enables payload compression for all subsequently written epochs
// (compress.Zero for zero-page elimination, compress.Flate for DEFLATE).
// Restore decodes transparently via the manifest's codec field. Must not be
// called while an epoch is open.
func (r *Repository) SetCodec(c compress.Codec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.curOpen {
		panic("ckpt: SetCodec with an open epoch")
	}
	r.codec = c
}

// SetDedup enables or disables content-addressed dedup for subsequently
// written epochs (enabled by default). Must not be called while an epoch is
// open.
func (r *Repository) SetDedup(enabled bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.curOpen {
		panic("ckpt: SetDedup with an open epoch")
	}
	r.dedup = enabled
}

// SetMetrics attaches an observability metric set to the repository's
// write path (record latency, compression ratio, dedup hit rate, staging
// depth). Nil detaches. Must not be called while an epoch is open.
func (r *Repository) SetMetrics(m *obs.Metrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.curOpen {
		panic("ckpt: SetMetrics with an open epoch")
	}
	r.obs = m
}

// DedupStats returns the dedup counters accumulated since the repository
// was opened.
func (r *Repository) DedupStats() DedupStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// loadIndexLocked runs once, before the first epoch opens: the one strict
// chain load both validates the chain we are about to extend (page size,
// no interior damage) and rebuilds the dedup index from its manifests (no
// segment reads: v3 manifests carry content hashes). Pages and refs
// recorded by older manifests enter the index without a hash — v1 has
// none, and v2's FNV-64a values must never meet an XXH64 one — so they are
// never deduplicated against: their first rewrite stores physically and
// upgrades them.
func (r *Repository) loadIndexLocked() error {
	ch, err := LoadChain(r.fs)
	if err != nil {
		return err
	}
	if ch.PageSize != 0 && ch.PageSize != r.pageSize {
		return fmt.Errorf("ckpt: repository chain has page size %d, repository opened with %d", ch.PageSize, r.pageSize)
	}
	r.index, r.pending = make(map[int]pageIdx), make(map[int]pageIdx)
	for _, m := range ch.Live() {
		hasHashes := m.Format >= FormatV3 && len(m.Hashes) == len(m.Pages)
		for i, p := range m.Pages {
			e := pageIdx{epoch: m.Epoch}
			if hasHashes {
				e.hash, e.hasHash = m.Hashes[i], true
			}
			r.index[p] = e
		}
		for _, ref := range m.Refs {
			r.index[ref.Page] = pageIdx{hash: ref.Hash, epoch: ref.Epoch, hasHash: m.Format >= FormatV3}
		}
	}
	return nil
}

// WritePage implements storage.Backend. Pages of an epoch may arrive in any
// order; the first page of a new epoch opens it, its first physical record
// opens the segment. data must be non-nil (the repository stores real
// content; phantom simulations use the timing backends instead). A page
// whose content hash matches the newest chain entry is deduplicated: no
// segment record is written, only a manifest Ref.
//
// WritePage is safe for concurrent use within one epoch (the parallel
// commit pipeline's workers). Content hashing and codec encoding run
// outside every lock; the dedup decision and its bookkeeping are taken
// under the repository's; and the record is copied into the segment buffer
// by one locked append, so file order is manifest order. data is only read
// before WritePage returns — callers may reuse or mutate the buffer
// afterwards. Interleaving pages of two different epochs remains an error.
//
//aickpt:hotpath
func (r *Repository) WritePage(epoch uint64, page int, data []byte, size int) error {
	if data == nil {
		return fmt.Errorf("ckpt: nil page data for page %d (phantom writes not storable)", page)
	}
	if len(data) != size {
		return fmt.Errorf("ckpt: page %d: data length %d != size %d", page, len(data), size)
	}
	sampled := false
	var wstart time.Duration
	if r.obs != nil && r.recordTick.Add(1)%recordSampleEvery == 0 {
		sampled = true
		wstart = r.obs.Now()
	}
	// Hash off-lock: with several committer workers this is the hottest
	// per-page step after the codec.
	rawHash := contentHash(data)
	r.mu.Lock()
	if r.curOpen && r.curMan.Epoch != epoch {
		r.mu.Unlock()
		return fmt.Errorf("ckpt: page for epoch %d while epoch %d is open", epoch, r.curMan.Epoch)
	}
	if !r.curOpen {
		if r.index == nil {
			if err := r.loadIndexLocked(); err != nil {
				r.mu.Unlock()
				return err
			}
		}
		r.curMan = Manifest{
			Epoch: epoch, PageSize: r.pageSize, Codec: uint8(r.codec), Format: FormatV3,
			// The last epoch's arrays, emptied by discardEpochLocked.
			Pages: r.curMan.Pages, Hashes: r.curMan.Hashes, Refs: r.curMan.Refs,
		}
		r.curOpen = true
	}
	if r.dedup {
		prev, ok := r.pending[page]
		if !ok {
			prev, ok = r.index[page]
		}
		if ok && prev.hasHash && prev.hash == rawHash {
			r.curMan.Refs = append(r.curMan.Refs, PageRef{Page: page, Epoch: prev.epoch, Hash: rawHash})
			r.pending[page] = prev
			r.curStats.PagesDeduped++
			r.curStats.BytesDeduped += int64(size)
			r.mu.Unlock()
			if r.obs != nil {
				r.obs.DedupHits.Inc()
				r.obs.RecordRawBytes.Add(uint64(size))
				if sampled {
					wend := r.obs.Now()
					r.obs.RecordWriteNs.Observe(int64(wend - wstart))
					r.obs.TraceAt(wend, obs.StageDedup, epoch, int32(page), 0, int64(size))
				} else {
					r.obs.Trace(obs.StageDedup, epoch, int32(page), 0, int64(size))
				}
			}
			return nil
		}
	}
	if r.seg.f == nil {
		f, err := r.fs.Create(segmentName(epoch))
		if err != nil {
			r.mu.Unlock()
			return fmt.Errorf("ckpt: create segment: %w", err)
		}
		r.seg.reset(f)
	}
	r.pending[page] = pageIdx{hash: rawHash, epoch: epoch, hasHash: true}
	r.curStats.PagesStored++
	r.curStats.BytesStored += int64(size)
	codec := r.codec
	r.mu.Unlock()
	// Encode and hash the record off-lock, into a pooled buffer this call
	// owns until the append has copied it out. Without a codec the record
	// is the page and its hash the content hash already in hand.
	payload, recHash := data, rawHash
	var buf *[]byte
	if codec != compress.None {
		buf = payloadPool.Get().(*[]byte)
		payload = compress.EncodeInto(codec, data, *buf)
		recHash = contentHash(payload)
	}
	err := r.seg.append(&r.curMan, page, payload, recHash, rawHash)
	coded := len(payload)
	if buf != nil {
		*buf = payload[:0]
		payloadPool.Put(buf)
	}
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if r.obs != nil {
		r.obs.DedupMisses.Inc()
		r.obs.RecordRawBytes.Add(uint64(size))
		r.obs.RecordCodedBytes.Add(uint64(coded))
		if sampled {
			wend := r.obs.Now()
			r.obs.RecordWriteNs.Observe(int64(wend - wstart))
			if codec != compress.None {
				r.obs.TraceAt(wend, obs.StageCompress, epoch, int32(page), 0, int64(coded))
			}
		}
	}
	return nil
}

// EndEpoch implements storage.Backend: it flushes and publishes the
// segment, then writes the manifest, sealing the epoch. Dedup index updates
// and counters commit here, after the seal. Sealed or not, no epoch is open
// when EndEpoch returns: a failed seal discards the epoch whole — index and
// counters untouched, so later dedup decisions only ever reference sealed
// content — and a retry writes it again from its first page. EndEpoch must
// not run concurrently with WritePage calls for the same epoch; the
// committer's epoch-end barrier provides exactly that ordering.
func (r *Repository) EndEpoch(epoch uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	man := &r.curMan
	if !r.curOpen {
		// An epoch with zero dirty pages still seals (empty manifest) so
		// restore knows the checkpoint completed.
		man = &Manifest{Epoch: epoch, PageSize: r.pageSize, Format: FormatV3}
	} else if man.Epoch != epoch {
		return fmt.Errorf("ckpt: sealing epoch %d while epoch %d is open", epoch, man.Epoch)
	}
	defer r.discardEpochLocked()
	if err := r.seg.seal(r.fs, man, r.obs); err != nil {
		return fmt.Errorf("ckpt: seal epoch %d: %w", epoch, err)
	}
	if r.obs != nil {
		r.obs.EpochsSealedRepo.Inc()
	}
	for p, e := range r.pending {
		r.index[p] = e
	}
	// The epoch is durable: its dedup counters become visible.
	r.stats.PagesStored += r.curStats.PagesStored
	r.stats.BytesStored += r.curStats.BytesStored
	r.stats.PagesDeduped += r.curStats.PagesDeduped
	r.stats.BytesDeduped += r.curStats.BytesDeduped
	return nil
}

// Abort discards any open, unsealed epoch (used on shutdown after failure).
func (r *Repository) Abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.discardEpochLocked()
}
