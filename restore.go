package aickpt

import (
	"fmt"
	"slices"

	"repro/internal/ckpt"
)

// Image is a restored memory image: for every page ever checkpointed, the
// newest content from the last sealed epoch backwards. Pages absent from
// the image were never written before the restart point and hold zeros.
type Image struct {
	// PageSize is the page granularity the repository was written with.
	PageSize int
	// Epoch is the newest sealed checkpoint folded into the image.
	Epoch uint64
	inner *ckpt.Image
}

// Page returns the restored content of a global page ID (zeros if the page
// was never checkpointed). For never-checkpointed pages the returned slice
// is a shared read-only zero page: treat it as immutable and copy it
// before writing.
func (im *Image) Page(id int) []byte { return im.inner.PageOr(id) }

// SegmentsRead reports how many segments owned at least one winner — the
// newest copy of some page. Those are the only segments the restore opened;
// one whose every page a newer checkpoint rewrote is never read.
func (im *Image) SegmentsRead() int { return im.inner.SegmentsRead }

// PageIDs returns the sorted IDs of all pages present in the image.
func (im *Image) PageIDs() []int { return slices.Clone(im.inner.Pages.IDs()) }

// Restore reads the checkpoint repository in dir and folds all sealed
// epochs into a memory image. Epochs interrupted by a crash before sealing
// are ignored: the restart point is the last completed checkpoint. The
// manifests decide which record holds each page's newest copy, and only
// those records are read and verified, by min(GOMAXPROCS, 8) concurrent
// readers; the image is the same for any reader count. Use RestoreWorkers
// to pin it.
func Restore(dir string) (*Image, error) { return RestoreWorkers(dir, 0) }

// RestoreWorkers is Restore with an explicit segment-reader count; 0 picks
// min(GOMAXPROCS, 8).
func RestoreWorkers(dir string, workers int) (*Image, error) {
	fs, err := ckpt.OpenOSFS(dir)
	if err != nil {
		return nil, err
	}
	im, err := ckpt.RestoreWith(fs, ckpt.RestoreOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &Image{PageSize: im.PageSize, Epoch: im.Epoch, inner: im}, nil
}

// LoadImage copies restored content into a region allocated by this
// runtime. The application must re-create its protected regions in the same
// order and with the same sizes as the crashed run (so page IDs line up),
// then load each. Loaded pages are clean: they re-enter checkpoints only
// when written again, which is correct because their content is already in
// the repository this runtime continues.
func (rt *Runtime) LoadImage(im *Image, r *Region) error {
	if im.PageSize != rt.opts.PageSize {
		return fmt.Errorf("aickpt: image page size %d != runtime page size %d", im.PageSize, rt.opts.PageSize)
	}
	buf := r.inner.Bytes()
	if buf == nil {
		return fmt.Errorf("aickpt: cannot load into phantom region")
	}
	first, count := r.inner.Pages()
	for i := 0; i < count; i++ {
		copy(buf[i*im.PageSize:(i+1)*im.PageSize], im.Page(first+i))
	}
	return nil
}

// ChainSummary condenses the repository chain: what the live chain holds,
// what compaction has folded, and what garbage collection could still reclaim.
type ChainSummary struct {
	PageSize int
	// LastEpoch is the restart point (through live epochs or the base).
	LastEpoch uint64
	// LiveSegments is the number of segments the live chain holds.
	LiveSegments int
	// HasBase reports a committed consolidated base covering
	// [BaseFrom, BaseTo].
	HasBase          bool
	BaseFrom, BaseTo uint64
	// LiveBytes is the total segment size of the live chain; Deduped
	// counts page writes across it elided by dedup; ReclaimableBytes is
	// the garbage (superseded epochs, stale bases) still on disk.
	LiveBytes        int64
	Deduped          int
	ReclaimableBytes int64
}

// InspectChain summarizes the chain structure of a repository directory;
// it backs the ckpt-inspect tool's chain view.
func InspectChain(dir string) (ChainSummary, error) {
	fs, err := ckpt.OpenOSFS(dir)
	if err != nil {
		return ChainSummary{}, err
	}
	ch, err := ckpt.LoadChain(fs)
	if err != nil {
		return ChainSummary{}, err
	}
	sum := ChainSummary{
		PageSize:         ch.PageSize,
		LiveSegments:     ch.LiveSegments(),
		ReclaimableBytes: ch.ReclaimableBytes(),
	}
	sum.LastEpoch, _ = ch.LastEpoch()
	if ch.Base != nil {
		sum.HasBase = true
		sum.BaseFrom, sum.BaseTo = ch.Base.Base.From, ch.Base.Base.To
		sum.LiveBytes += ch.Base.TotalBytes
	}
	for _, m := range ch.Epochs {
		sum.LiveBytes += m.TotalBytes
		sum.Deduped += m.DedupCount()
	}
	return sum, nil
}
