package main

import (
	"io"
	"strings"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/compact"
	"repro/internal/multilevel"
	"repro/internal/obs"
)

// The decorators below sit on the runtime's own layer boundaries — core's
// Store, ckpt's FS, multilevel's Tier — and record one span per call. They
// change nothing but the time the clock reads take, which the run reports
// as trace.overhead_pct.

// tracedFS decorates one view of a directory. Several views of one OSFS
// tell callers apart: the repository, the compactor and a restore each get
// their own tag.
type tracedFS struct {
	inner ckpt.FS
	tr    *tracer
	tag   uint8
	// owner is the Tier.Store or Tier.Load whose call currently owns the
	// view (the PFS directory serves one at a time), or parentByEpoch.
	owner atomic.Int32
}

func newTracedFS(inner ckpt.FS, tr *tracer, tag string) *tracedFS {
	fs := &tracedFS{inner: inner, tr: tr, tag: tr.tag(tag)}
	fs.owner.Store(parentByEpoch)
	return fs
}

// own hangs the view's spans under id until the returned func runs.
func (fs *tracedFS) own(id int32) (release func()) {
	fs.owner.Store(id)
	return func() { fs.owner.Store(parentByEpoch) }
}

func (fs *tracedFS) call(kind spanKind, name string) (id int32) {
	return fs.tr.begin(kind, lyFS, fs.tag, epochOfFile(name), fs.owner.Load())
}

func (fs *tracedFS) Create(name string) (io.WriteCloser, error) {
	id := fs.call(spFSCreate, name)
	w, err := fs.inner.Create(name)
	fs.tr.finish(id, 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{fs: fs, w: w, proto: fs.proto(name)}, nil
}

func (fs *tracedFS) Open(name string) (io.ReadCloser, error) {
	id := fs.call(spFSOpen, name)
	r, err := fs.inner.Open(name)
	fs.tr.finish(id, segmentFlag(name))
	if err != nil {
		return nil, err
	}
	return &tracedFile{fs: fs, r: r, proto: fs.proto(name), segment: segmentFlag(name)}, nil
}

func (fs *tracedFS) List() ([]string, error) {
	id := fs.call(spFSList, "")
	names, err := fs.inner.List()
	fs.tr.finish(id, 0)
	return names, err
}

func (fs *tracedFS) Remove(name string) error {
	id := fs.call(spFSRemove, name)
	err := fs.inner.Remove(name)
	fs.tr.finish(id, 0)
	return err
}

// proto is the span every read or write of one open file copies.
func (fs *tracedFS) proto(name string) span {
	return span{epoch: epochOfFile(name), parent: fs.owner.Load(), layer: lyFS, tag: fs.tag}
}

// segmentFlag is the arg of an Open and of the Close that ends the read: 1
// for a segment file, 0 for a manifest.
func segmentFlag(name string) int32 {
	if strings.HasSuffix(name, ".pages") {
		return 1
	}
	return 0
}

// tracedFile is an open file of a tracedFS, reading or writing. A segment
// sees two calls per page, so their spans collect in the handle (one
// goroutine uses a handle at a time) and reach the tracer at Close.
type tracedFile struct {
	fs    *tracedFS
	w     io.WriteCloser
	r     io.ReadCloser
	proto span
	batch []span
	// segment is the arg of the Close that ends a read, see segmentFlag.
	segment int32
}

func (f *tracedFile) record(kind spanKind, start int64, n int) {
	s := f.proto
	s.kind, s.start, s.end, s.arg = kind, start, f.fs.tr.now(), int32(n)
	f.batch = append(f.batch, s)
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.fs.tr.now()
	n, err := f.w.Write(p)
	f.record(spFSWrite, start, n)
	return n, err
}

func (f *tracedFile) Read(p []byte) (int, error) {
	start := f.fs.tr.now()
	n, err := f.r.Read(p)
	f.record(spFSRead, start, n)
	return n, err
}

func (f *tracedFile) Close() error {
	f.fs.tr.addBatch(f.batch)
	f.batch = nil
	kind, c := spFSPublish, io.Closer(f.w)
	if f.r != nil {
		kind, c = spFSCloseRead, f.r
	}
	id := f.fs.tr.begin(kind, lyFS, f.proto.tag, f.proto.epoch, f.proto.parent)
	err := c.Close()
	f.fs.tr.finish(id, f.segment)
	return err
}

// Abort implements ckpt.Aborter, so a failed write still discards its
// staging file instead of publishing it.
func (f *tracedFile) Abort() error {
	f.fs.tr.addBatch(f.batch)
	f.batch = nil
	ckpt.Discard(f.w)
	return nil
}

// pageStore is what core asks of a backend (aickpt.Store, spelled here so
// both *ckpt.Repository and *multilevel.Hierarchy fit).
type pageStore interface {
	WritePage(epoch uint64, page int, data []byte, size int) error
	EndEpoch(epoch uint64) error
}

// tracedStore decorates the core → Store boundary. Like the adapter
// aickpt.New puts there, it kicks the background compactor after a seal.
type tracedStore struct {
	inner     pageStore
	tr        *tracer
	tag       uint8
	compactor *compact.Compactor // nil without background compaction
}

func (s *tracedStore) WritePage(epoch uint64, page int, data []byte, size int) error {
	id := s.tr.begin(spWritePage, lyCkpt, s.tag, uint32(epoch), parentByEpoch)
	err := s.inner.WritePage(epoch, page, data, size)
	s.tr.finish(id, int32(size))
	return err
}

func (s *tracedStore) EndEpoch(epoch uint64) error {
	id := s.tr.begin(spEndEpoch, lyCkpt, s.tag, uint32(epoch), parentByEpoch)
	err := s.inner.EndEpoch(epoch)
	s.tr.finish(id, 0)
	if err == nil && s.compactor != nil {
		s.compactor.Kick()
	}
	return err
}

// SetMetrics lets aickpt.New hand the repository its metric set, as it does
// for the repository it builds itself.
func (s *tracedStore) SetMetrics(m *obs.Metrics) {
	if r, ok := s.inner.(interface{ SetMetrics(*obs.Metrics) }); ok {
		r.SetMetrics(m)
	}
}

// tierSpans records the multilevel → Tier boundary of one lower tier.
type tierSpans struct {
	tr    *tracer
	tag   uint8
	layer layer
	fs    *tracedFS // the tier's directory view, nil for the in-memory peers
}

func (t *tierSpans) span(kind spanKind, epoch uint64, call func() error) error {
	id := t.tr.begin(kind, t.layer, t.tag, uint32(epoch), parentByEpoch)
	if t.fs != nil {
		defer t.fs.own(id)()
	}
	err := call()
	failed := int32(0)
	if err != nil {
		failed = 1
	}
	t.tr.finish(id, failed)
	return err
}

// tracedPeerTier and tracedDirTier embed the tier they decorate, so the
// optional interfaces the drainer asks for (EpochHolder, Layouter,
// DegradedReporter) stay visible through them.
type tracedPeerTier struct {
	*multilevel.PeerTier
	tierSpans
}

func (t *tracedPeerTier) Store(ep *multilevel.EpochData) error {
	return t.span(spTierStore, ep.Epoch, func() error { return t.PeerTier.Store(ep) })
}

func (t *tracedPeerTier) Load(epoch uint64) (ep *multilevel.EpochData, err error) {
	err = t.span(spTierLoad, epoch, func() error {
		ep, err = t.PeerTier.Load(epoch)
		return err
	})
	return ep, err
}

type tracedDirTier struct {
	*multilevel.LocalTier
	tierSpans
}

func (t *tracedDirTier) Store(ep *multilevel.EpochData) error {
	return t.span(spTierStore, ep.Epoch, func() error { return t.LocalTier.Store(ep) })
}

func (t *tracedDirTier) Load(epoch uint64) (ep *multilevel.EpochData, err error) {
	err = t.span(spTierLoad, epoch, func() error {
		ep, err = t.LocalTier.Load(epoch)
		return err
	})
	return ep, err
}
