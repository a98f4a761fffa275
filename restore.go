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
