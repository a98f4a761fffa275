package ckpt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/util"
)

// Record format inside epoch-%08d.pages (and base-%08d-%08d.pages):
//
//	magic   uint32  'AICP'
//	page    uint32
//	size    uint32  (payload bytes)
//	hash    uint64  (FNV-64a of payload)
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
	// FormatV2 adds Hashes, Refs and Base.
	Format int `json:"format,omitempty"`
	// Hashes holds the FNV-64a hash of the raw (uncompressed) content of
	// Pages[i]; the dedup index is rebuilt from it after a restart.
	Hashes []uint64 `json:"hashes,omitempty"`
	// Refs lists the pages of the epoch elided by content-addressed dedup:
	// their content is bit-identical to an earlier physical record.
	Refs []PageRef `json:"refs,omitempty"`
	// Base marks a consolidated base segment covering an epoch range.
	Base *BaseRange `json:"base,omitempty"`
}

// DedupCount returns the number of pages the epoch elided via dedup.
func (m *Manifest) DedupCount() int { return len(m.Refs) }

// DedupRatio returns the fraction of the epoch's dirty pages that were
// elided via dedup (0 when the epoch wrote nothing).
func (m *Manifest) DedupRatio() float64 {
	total := m.PageCount + len(m.Refs)
	if total == 0 {
		return 0
	}
	return float64(len(m.Refs)) / float64(total)
}

// segmentWriter streams self-checking records into a segment file and
// accumulates the manifest bookkeeping. It is shared by the repository's
// streaming epoch path and the compactor's base writer.
type segmentWriter struct {
	pageSize int
	codec    uint8
	f        io.WriteCloser
	buf      *bufio.Writer
	hdr      [20]byte // record-header scratch: a stack header escapes into
	// the underlying writer interface on bufio pass-through, costing one
	// heap allocation per record
}

func (w *segmentWriter) begin(f io.WriteCloser) error {
	w.f = f
	w.buf = bufio.NewWriter(f)
	return nil
}

// writeRecord encodes one page record (applying the codec) and updates the
// manifest. rawHash is the FNV-64a hash of data before encoding.
func (w *segmentWriter) writeRecord(man *Manifest, page int, data []byte, rawHash uint64) error {
	if compress.Codec(w.codec) != compress.None {
		data = compress.Encode(compress.Codec(w.codec), data)
	}
	return w.writeEncoded(man, page, data, rawHash)
}

// writeEncoded appends one record whose payload is already codec-encoded
// (or verbatim for codec None) and updates the manifest bookkeeping.
func (w *segmentWriter) writeEncoded(man *Manifest, page int, payload []byte, rawHash uint64) error {
	hdr := w.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:], recordMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(page))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[12:], util.Fnv64a(payload))
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	if _, err := w.buf.Write(payload); err != nil {
		return fmt.Errorf("write payload: %w", err)
	}
	man.PageCount++
	man.TotalBytes += int64(len(hdr)) + int64(len(payload))
	man.Pages = append(man.Pages, page)
	man.Hashes = append(man.Hashes, rawHash)
	return nil
}

// payloadPool recycles encode-output and staging-copy buffers across pages
// and epochs: every page flushed used to allocate a fresh buffer that died
// milliseconds later. Buffers are returned once their record reaches the
// segment writer (or the epoch fails).
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// recordJob is one encoded page record staged for the segment writer.
type recordJob struct {
	page    int
	payload []byte // codec-encoded, owned by the job
	rawHash uint64
	buf     *[]byte // pooled backing buffer to release after the write, or nil
}

// release returns the job's pooled buffer, if any, once the payload is no
// longer referenced.
//
//aickpt:release payloadPool
func (j *recordJob) release() {
	if j.buf != nil {
		*j.buf = j.payload[:0]
		payloadPool.Put(j.buf)
		j.buf = nil
	}
}

// epochStage is the staging buffer between concurrent page committers and
// the epoch's single segment-writer goroutine: WritePage hands encoded
// records to the stage (cheap, under the stage's own lock) and the writer
// drains them in batches, appending to the segment and folding the
// per-record bookkeeping into the manifest in arrival order. This keeps the
// on-disk format and the manifest's Pages/Hashes pairing exactly as in the
// serial path while letting the expensive steps — content hashing, codec
// encoding, the page copy — run concurrently outside every repository lock.
//
// When no records are staged ahead and the writer is idle, submit appends
// synchronously instead (zero-copy: the caller's buffer is still valid),
// so a single committer worker pays neither the page copy nor the
// goroutine handoff — the hot path is the old serial one.
type epochStage struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []recordJob
	closed bool
	err    error //aickpt:guardedby mu (first segment-write error)

	writeMu sync.Mutex // serializes segment appends (writer batches and sync path)
	w       *segmentWriter
	man     *Manifest
	obs     *obs.Metrics // nil: observability disabled

	spare []recordJob // drained batch array recycled into the next queue

	done chan struct{} // closed when the writer has drained and exited
}

// newEpochStage starts the segment-writer goroutine for one open epoch.
// w and man are owned by the stage until close returns.
func newEpochStage(w *segmentWriter, man *Manifest, m *obs.Metrics) *epochStage {
	s := &epochStage{w: w, man: man, obs: m, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// submit appends one encoded record: synchronously when the segment writer
// is idle and nothing is staged ahead (no copy, error surfaced directly),
// otherwise by staging it for the writer goroutine. borrowed marks a
// payload that aliases caller memory and must be copied if staged.
func (s *epochStage) submit(j recordJob, borrowed bool) error {
	s.mu.Lock()
	if len(s.queue) == 0 && s.err == nil && s.writeMu.TryLock() {
		s.mu.Unlock()
		err := s.w.writeEncoded(s.man, j.page, j.payload, j.rawHash)
		s.writeMu.Unlock()
		j.release()
		if err != nil {
			s.fail(err)
		}
		return err
	}
	if borrowed {
		// Copy the caller-owned payload into a pooled buffer; the writer
		// goroutine releases it after the record lands in the segment.
		buf := payloadPool.Get().(*[]byte) //aickpt:owns released by recordJob.release after the drain
		j.payload = append((*buf)[:0], j.payload...)
		j.buf = buf
	}
	if s.queue == nil && s.spare != nil {
		s.queue, s.spare = s.spare, nil
	}
	s.queue = append(s.queue, j)
	if s.obs != nil {
		s.obs.StagingDepth.Set(int64(len(s.queue)))
	}
	s.cond.Signal()
	s.mu.Unlock()
	return nil
}

// fail records the stage's first error.
func (s *epochStage) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *epochStage) run() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.queue
		s.queue = nil
		closed := s.closed
		failed := s.err != nil
		if s.obs != nil {
			s.obs.StagingDepth.Set(0)
		}
		s.mu.Unlock()
		if len(batch) == 0 && closed {
			return
		}
		s.writeMu.Lock()
		for i := range batch {
			j := &batch[i]
			if !failed { // keep draining past an error; it decides the epoch
				if err := s.w.writeEncoded(s.man, j.page, j.payload, j.rawHash); err != nil {
					s.fail(err)
					failed = true
				}
			}
			j.release()
		}
		s.writeMu.Unlock()
		if len(batch) > 0 {
			// Recycle the drained batch array into the next queue (stale
			// payload pointers cleared so the pool owns them exclusively).
			clear(batch)
			s.mu.Lock()
			if s.spare == nil || cap(batch) > cap(s.spare) {
				s.spare = batch[:0]
			}
			s.mu.Unlock()
		}
	}
}

// close waits for every staged record to reach the segment writer, stops
// the writer goroutine and returns the first write error.
func (s *epochStage) close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Signal()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// finish flushes and closes the segment file; under the FS contract the
// Close is what publishes the segment. A flush failure discards the file
// unpublished — a half-flushed segment must never become visible.
func (w *segmentWriter) finish() error {
	if err := w.buf.Flush(); err != nil {
		Discard(w.f)
		return fmt.Errorf("flush: %w", err)
	}
	return w.f.Close()
}

func (w *segmentWriter) abort() {
	if w.f != nil {
		Discard(w.f)
	}
}

// writeManifestFile encodes a manifest to name; closing the file is the
// commit point of the epoch or base it describes.
func writeManifestFile(fs FS, name string, m *Manifest) error {
	f, err := fs.Create(name)
	if err != nil {
		return fmt.Errorf("ckpt: create manifest: %w", err)
	}
	if err := json.NewEncoder(f).Encode(m); err != nil {
		Discard(f)
		return fmt.Errorf("ckpt: encode manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ckpt: close manifest: %w", err)
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
	hash    uint64 // FNV-64a of the raw content
	epoch   uint64 // epoch whose segment physically holds it
	hasHash bool   // false for content recorded by v1 manifests (no hash)
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
// outside the repository lock, and a single segment-writer goroutine
// appends the staged records in arrival order), with EndEpoch acting as the
// epoch's barrier.
//
// Repositories write format-v2 manifests: every stored page carries a
// content hash, and pages whose content is bit-identical to the newest
// chain entry are deduplicated — recorded as a manifest Ref instead of a
// segment record. The dedup index is rebuilt from the chain's manifests on
// first use, so a restarted process keeps deduplicating against the
// existing chain. Dedup trusts the 64-bit FNV-1a content hash (as in
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

	mu      sync.Mutex
	w       *segmentWriter //aickpt:guardedby mu (nil until the epoch's first physical record)
	stage   *epochStage    //aickpt:guardedby mu (segment-writer stage; lifecycle follows w)
	curMan  Manifest       //aickpt:guardedby mu
	curOpen bool           //aickpt:guardedby mu

	index       map[int]pageIdx //aickpt:guardedby mu (newest sealed content per page)
	pending     map[int]pageIdx //aickpt:guardedby mu (current open epoch; merged into index at seal)
	indexLoaded bool            //aickpt:guardedby mu
	sizeChecked bool            //aickpt:guardedby mu (existing chain's page size validated against ours)
	stats       DedupStats      //aickpt:guardedby mu (sealed epochs only)
	curStats    DedupStats      //aickpt:guardedby mu (open epoch; folded into stats at seal, dropped on abort)

	// Per-epoch bookkeeping recycled across epochs: the manifest's slices
	// and the pending map are dropped by value at each seal, but their
	// backing storage is reclaimed here after the manifest is on disk, so
	// steady-state epochs append and insert without growing the heap.
	pagesScratch   []int           //aickpt:guardedby mu
	hashesScratch  []uint64        //aickpt:guardedby mu
	refsScratch    []PageRef       //aickpt:guardedby mu
	pendingScratch map[int]pageIdx //aickpt:guardedby mu
}

// reclaimEpochScratchLocked takes the closed epoch's manifest slices and
// pending map back as scratch for the next epoch. Only call once the
// manifest is durably encoded (or discarded): the recycled arrays will be
// overwritten.
func (r *Repository) reclaimEpochScratchLocked() {
	if r.curMan.Pages != nil {
		r.pagesScratch = r.curMan.Pages[:0]
	}
	if r.curMan.Hashes != nil {
		r.hashesScratch = r.curMan.Hashes[:0]
	}
	if r.curMan.Refs != nil {
		r.refsScratch = r.curMan.Refs[:0]
	}
	if r.pending != nil {
		clear(r.pending)
		r.pendingScratch = r.pending
	}
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

// PageSize returns the page size the repository was created with.
func (r *Repository) PageSize() int { return r.pageSize }

// DedupStats returns the dedup counters accumulated since the repository
// was opened.
func (r *Repository) DedupStats() DedupStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// loadIndexLocked rebuilds the dedup index from the chain's manifests (no
// segment reads: v2 manifests carry content hashes). Pages recorded by v1
// manifests enter the index without a hash and are never deduplicated
// against — their first rewrite stores physically and upgrades them.
func (r *Repository) loadIndexLocked() error {
	ch, err := LoadChain(r.fs)
	if err != nil {
		return err
	}
	if ch.PageSize != 0 && ch.PageSize != r.pageSize {
		return fmt.Errorf("ckpt: repository chain has page size %d, repository opened with %d", ch.PageSize, r.pageSize)
	}
	r.index = make(map[int]pageIdx)
	fold := func(m Manifest) {
		hasHashes := m.Format >= FormatV2 && len(m.Hashes) == len(m.Pages)
		for i, p := range m.Pages {
			e := pageIdx{epoch: m.Epoch}
			if hasHashes {
				e.hash, e.hasHash = m.Hashes[i], true
			}
			r.index[p] = e
		}
		for _, ref := range m.Refs {
			r.index[ref.Page] = pageIdx{hash: ref.Hash, epoch: ref.Epoch, hasHash: true}
		}
	}
	if ch.Base != nil {
		fold(*ch.Base)
	}
	for _, m := range ch.Epochs {
		fold(m)
	}
	r.indexLoaded = true
	r.sizeChecked = true
	return nil
}

// checkChainPageSizeLocked is the dedup-off counterpart of the index
// load's validation: one manifest decode (the newest chain entry) instead
// of the whole chain, so a repository opened at the wrong granularity
// still refuses to extend the chain.
func (r *Repository) checkChainPageSizeLocked() error {
	if r.sizeChecked {
		return nil
	}
	names, err := r.fs.List()
	if err != nil {
		return fmt.Errorf("ckpt: list: %w", err)
	}
	var picks []string
	for _, n := range names {
		// Sorted names put base-* before epoch-*, so the newest epoch
		// manifest wins whenever one exists.
		if (strings.HasPrefix(n, "epoch-") || strings.HasPrefix(n, "base-")) && strings.HasSuffix(n, ".json") {
			picks = append(picks, n)
		}
	}
	// Walk newest to oldest: the newest *decodable* manifest carries the
	// chain's page size. Torn manifests (crash artifacts at the tail) are
	// skipped here; the strict chain loader decides whether a decode
	// failure is fatal when the chain is actually read.
	for i := len(picks) - 1; i >= 0; i-- {
		m, err := decodeManifestFile(r.fs, picks[i])
		if err != nil {
			continue
		}
		if m.PageSize != r.pageSize {
			return fmt.Errorf("ckpt: repository chain has page size %d, repository opened with %d", m.PageSize, r.pageSize)
		}
		break
	}
	r.sizeChecked = true
	return nil
}

// WritePage implements storage.Backend. Pages of an epoch may arrive in any
// order; the first page of a new epoch opens its segment. data must be
// non-nil (the repository stores real content; phantom simulations use the
// timing backends instead). A page whose content hash matches the newest
// chain entry is deduplicated: no segment record is written, only a
// manifest Ref.
//
// WritePage is safe for concurrent use within one epoch (the parallel
// commit pipeline's workers). Content hashing and codec encoding run
// outside the repository lock; the dedup decision and manifest bookkeeping
// are taken under it; and the encoded record is handed to a per-epoch
// staging buffer drained by a single segment-writer goroutine, so the
// on-disk format is byte-for-byte the serial one. data is only read before
// WritePage returns — callers may reuse or mutate the buffer afterwards.
// Interleaving pages of two different epochs remains an error.
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
		if r.dedup && !r.indexLoaded {
			if err := r.loadIndexLocked(); err != nil {
				r.mu.Unlock()
				return err
			}
		} else if err := r.checkChainPageSizeLocked(); err != nil {
			r.mu.Unlock()
			return err
		}
		r.curMan = Manifest{
			Epoch: epoch, PageSize: r.pageSize, Codec: uint8(r.codec), Format: FormatV2,
			// Recycled backing arrays; empty until this epoch appends.
			Pages: r.pagesScratch, Hashes: r.hashesScratch, Refs: r.refsScratch,
		}
		r.pagesScratch, r.hashesScratch, r.refsScratch = nil, nil, nil
		if r.dedup {
			if r.pendingScratch != nil {
				r.pending, r.pendingScratch = r.pendingScratch, nil
			} else {
				r.pending = make(map[int]pageIdx)
			}
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
	if r.w == nil {
		f, err := r.fs.Create(segmentName(epoch))
		if err != nil {
			r.mu.Unlock()
			return fmt.Errorf("ckpt: create segment: %w", err)
		}
		r.w = &segmentWriter{pageSize: r.pageSize, codec: uint8(r.codec)}
		if err := r.w.begin(f); err != nil {
			r.mu.Unlock()
			return err
		}
		r.stage = newEpochStage(r.w, &r.curMan, r.obs)
	}
	if r.pending != nil {
		r.pending[page] = pageIdx{hash: rawHash, epoch: epoch, hasHash: true}
	}
	r.curStats.PagesStored++
	r.curStats.BytesStored += int64(size)
	stage, codec := r.stage, compress.Codec(r.codec)
	r.mu.Unlock()
	// Encode off-lock. A payload that still aliases the caller's buffer
	// (codec None) is marked borrowed: if it must be staged for the writer
	// goroutine — the record then outlives this call, while the caller's
	// page becomes writable again the moment the committer marks it done —
	// the stage copies it; the synchronous fast path writes it copy-free.
	// Codec output goes into a pooled buffer released once the record
	// reaches the segment, so steady-state encoding allocates nothing.
	job := recordJob{page: page, payload: data, rawHash: rawHash}
	borrowed := true
	if codec != compress.None {
		buf := payloadPool.Get().(*[]byte) //aickpt:owns handed to the staged job; recordJob.release returns it
		job.payload = compress.EncodeInto(codec, data, *buf)
		job.buf = buf
		borrowed = false
	}
	coded := len(job.payload)
	if err := stage.submit(job, borrowed); err != nil {
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

// EndEpoch implements storage.Backend: it drains the staged records,
// flushes the segment and writes the manifest, sealing the epoch. Dedup
// index updates commit here — an aborted epoch leaves the index untouched,
// so later dedup decisions only ever reference sealed content. EndEpoch
// must not run concurrently with WritePage calls for the same epoch; the
// committer's epoch-end barrier provides exactly that ordering.
func (r *Repository) EndEpoch(epoch uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.curOpen {
		// An epoch with zero dirty pages still seals (empty manifest) so
		// restore knows the checkpoint completed.
		r.curMan = Manifest{Epoch: epoch, PageSize: r.pageSize, Format: FormatV2}
	} else if r.curMan.Epoch != epoch {
		return fmt.Errorf("ckpt: sealing epoch %d while epoch %d is open", epoch, r.curMan.Epoch)
	}
	if r.stage != nil {
		err := r.stage.close()
		r.stage = nil
		if err != nil {
			// A record never reached the segment: the epoch cannot seal.
			// Discard it entirely — an unsealed epoch is invisible to
			// restore, which is the crash-consistency contract — and drop
			// its staged stats with it (the bookkeeping storage is still
			// reclaimed: the discarded manifest is never read again).
			r.w.abort()
			r.w = nil
			r.curOpen = false
			r.reclaimEpochScratchLocked()
			r.pending = nil
			r.curStats = DedupStats{}
			return fmt.Errorf("ckpt: %w", err)
		}
	}
	if r.w != nil {
		if err := r.w.finish(); err != nil {
			return fmt.Errorf("ckpt: segment: %w", err)
		}
	}
	mstart := r.obs.Now()
	if err := writeManifestFile(r.fs, manifestName(epoch), &r.curMan); err != nil {
		return err
	}
	if r.obs != nil {
		r.obs.ManifestWriteNs.Observe(int64(r.obs.Now() - mstart))
		r.obs.EpochsSealedRepo.Inc()
	}
	if r.indexLoaded {
		for p, e := range r.pending {
			r.index[p] = e
		}
	}
	// The epoch is durable: its dedup counters become visible.
	r.stats.PagesStored += r.curStats.PagesStored
	r.stats.BytesStored += r.curStats.BytesStored
	r.stats.PagesDeduped += r.curStats.PagesDeduped
	r.stats.BytesDeduped += r.curStats.BytesDeduped
	r.curStats = DedupStats{}
	r.curOpen = false
	r.w = nil
	// The manifest is on disk and the index merged: the epoch's slices and
	// pending map become the next epoch's pre-grown scratch.
	r.reclaimEpochScratchLocked()
	r.pending = nil
	return nil
}

// Abort discards any open, unsealed epoch (used on shutdown after failure).
func (r *Repository) Abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.curOpen {
		if r.stage != nil {
			// Join the segment writer before tearing down the state it
			// appends to; its outcome no longer matters.
			_ = r.stage.close()
			r.stage = nil
		}
		if r.w != nil {
			r.w.abort()
		}
		r.curOpen = false
		r.w = nil
		r.reclaimEpochScratchLocked()
		r.pending = nil
		r.curStats = DedupStats{}
	}
}
