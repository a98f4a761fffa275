// Package storage defines where checkpointed pages go. The page manager's
// committer writes through the Backend interface, which has persistent
// implementations (see internal/ckpt for the on-disk repository) and
// virtual-time implementations modeling the paper's testbeds: a local SATA
// disk (SimDisk) and a PVFS-like parallel file system striped over storage
// servers (SimPFS). Compression lives in the repository's codec, erasure
// coding in multilevel.PeerTier, fault injection in internal/faultfs.
package storage

// Backend persists page images produced by checkpointing.
//
// Concurrency contract: WritePage may be called concurrently for pages of
// the same epoch — the page manager's parallel commit pipeline runs
// several committer workers against one Backend — so implementations must
// synchronize any shared mutable state. Each (epoch, page) pair is written
// at most once per epoch, EndEpoch(e) is never concurrent with
// WritePage(e, ...) (the pipeline's epoch-end barrier orders every page
// write before the seal), and epochs are sealed in order; implementations
// may reject interleaved writes for two different epochs. The data slice
// is only valid for the duration of the call: a backend that retains page
// content past its return must copy it. This is not theoretical — the
// page manager recycles COW page copies into a buffer pool as soon as
// WritePage returns, and the repository hands pooled encode buffers back
// the same way, so a retained slice WILL be overwritten.
//
// Every Backend in this package and internal/ckpt honors this contract.
type Backend interface {
	// WritePage persists one page image for the given epoch. size is the
	// logical page size in bytes; data holds the image and may be nil in
	// phantom simulations where only timing is modeled (in that case
	// implementations must still account for size bytes).
	WritePage(epoch uint64, page int, data []byte, size int) error
	// EndEpoch seals an epoch after its last page has been written.
	EndEpoch(epoch uint64) error
}

// PageReader models the read-side cost of a medium: ReadPage accounts for
// fetching size bytes of one page (occupying the same simulated links a
// write would). Timing backends implement it so restore paths can charge
// reads in virtual time; read charging is opt-in at the tier level to keep
// the virtual timelines of write-side simulations unchanged.
type PageReader interface {
	ReadPage(epoch uint64, page int, size int) error
}

// NullStore discards everything instantly. It isolates the page-manager
// algorithm from I/O in microbenchmarks.
type NullStore struct{}

// WritePage implements Backend.
func (NullStore) WritePage(epoch uint64, page int, data []byte, size int) error { return nil }

// EndEpoch implements Backend.
func (NullStore) EndEpoch(epoch uint64) error { return nil }
