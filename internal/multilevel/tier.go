// Package multilevel implements a multi-level checkpoint hierarchy in the
// style of VELOC: committed pages land in a fast local tier first (L1) and
// are acknowledged immediately, then a background drainer promotes sealed
// epochs to progressively more resilient tiers — an erasure-coded peer tier
// striping Reed-Solomon shards across cluster nodes (L2) and a parallel
// file system (L3). A per-epoch tier manifest records where each epoch
// lives, and restore is tier-aware: it picks each page's newest copy from
// the tiers' metadata and reads only those, L1's in one fold and below it
// the epochs that still own a page, each from the fastest tier that
// delivers it, reconstructing from any k of k+m erasure shards when faster
// copies are lost.
//
// The hierarchy runs unchanged under the real clock and under the
// deterministic virtual-time kernel (internal/sim), so tier draining, link
// contention and failure injection can be evaluated reproducibly.
package multilevel

import (
	"fmt"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// EpochData is one sealed epoch in transit between tiers: the content of
// every page the epoch committed.
type EpochData struct {
	Epoch    uint64
	PageSize int
	Pages    ckpt.PageSet
}

// Tier is one level of the checkpoint hierarchy. Store persists a complete
// sealed epoch; Load reads one back (verifying integrity); Epochs lists the
// sealed epochs the tier currently holds; PageIDs lists an epoch's pages
// from metadata alone, so restore loads only the epochs that own a page of
// the image. Implementations must tolerate concurrent Store calls for
// different epochs (the drainer may run several workers per tier).
type Tier interface {
	Name() string
	Store(ep *EpochData) error
	Load(epoch uint64) (*EpochData, error)
	Epochs() ([]uint64, error)
	PageIDs(epoch uint64) ([]int, error)
}

// ShardLayout describes how an epoch's erasure shards are spread over peer
// nodes; tiers that shard expose it through the Layouter interface and the
// hierarchy records it in the epoch's tier manifest.
type ShardLayout struct {
	// Data and Parity are the Reed-Solomon parameters k and m.
	Data   int `json:"data"`
	Parity int `json:"parity"`
	// Start is the tier-wide index of the node holding shard 0 (the
	// rotation offset for this epoch).
	Start int `json:"start"`
	// Nodes names the target nodes in shard order: shard i lives on
	// Nodes[i]; the first Data entries hold data shards, the rest parity.
	Nodes []string `json:"nodes"`
}

// Layouter is implemented by tiers that stripe shards across nodes.
type Layouter interface {
	Layout(epoch uint64) *ShardLayout
}

// EpochHolder is implemented by tiers that can cheaply report whether they
// already hold a complete, healthy copy of an epoch. The drainer skips
// promoting such epochs — restart recovery would otherwise rewrite durable
// copies in place (non-atomically) and re-ship the whole chain on every
// restart. A degraded or absent copy reports false and is (re)stored.
type EpochHolder interface {
	Has(epoch uint64) bool
}

// DegradedReporter is implemented by tiers whose Store can succeed while
// losing some redundancy (e.g. shards destined for down nodes dropped);
// the drainer records such epochs as StateDegraded in the tier manifest.
type DegradedReporter interface {
	Degraded(epoch uint64) bool
}

// LocalTier is an FS-backed tier: epochs are stored through a checkpoint
// repository (real bytes, self-checking records) with an optional timing
// backend modeling the I/O cost of the medium — a SimDisk for node-local
// storage, a SimPFS for a parallel file system. It doubles as the streaming
// L1 target: the hierarchy forwards committer pages straight into it.
type LocalTier struct {
	name     string
	fs       ckpt.FS
	repo     *ckpt.Repository
	timing   storage.Backend // optional; models transfer cost only
	pageSize int

	// storeMu serializes whole-epoch Store calls: the repository keeps one
	// epoch open at a time. It is an Env mutex so holding it across
	// virtual-time transfers is legal under the simulation kernel.
	storeMu sync.Locker
}

// NewLocalTier returns an FS-backed tier. timing may be nil (no cost
// modeling, e.g. under the real clock where the FS itself is the cost).
func NewLocalTier(env sim.Env, name string, fs ckpt.FS, pageSize int, timing storage.Backend) *LocalTier {
	return &LocalTier{
		name:     name,
		fs:       fs,
		repo:     ckpt.NewRepository(fs, pageSize),
		timing:   timing,
		pageSize: pageSize,
		storeMu:  env.NewMutex(),
	}
}

// Name implements Tier.
func (t *LocalTier) Name() string { return t.name }

// SetDedup enables or disables content-addressed dedup in the tier's
// repository (enabled by default). Must be called before any epoch is
// streamed or stored.
func (t *LocalTier) SetDedup(enabled bool) { t.repo.SetDedup(enabled) }

// SetMetrics attaches observability to the tier's repository write path.
// Only the L1 tier should be instrumented — lower-tier stores re-write the
// same records and would double-count the repository families. Must be
// called before any epoch is streamed or stored.
func (t *LocalTier) SetMetrics(m *obs.Metrics) { t.repo.SetMetrics(m) }

// DedupStats returns the tier repository's dedup counters.
func (t *LocalTier) DedupStats() ckpt.DedupStats { return t.repo.DedupStats() }

// FS exposes the tier's filesystem (inspection and tests).
func (t *LocalTier) FS() ckpt.FS { return t.fs }

// WritePage implements storage.Backend for the streaming L1 path: the
// committer's pages are charged to the timing model, then persisted.
func (t *LocalTier) WritePage(epoch uint64, page int, data []byte, size int) error {
	if t.timing != nil {
		if err := t.timing.WritePage(epoch, page, nil, size); err != nil {
			return err
		}
	}
	return t.repo.WritePage(epoch, page, data, size)
}

// EndEpoch implements storage.Backend, sealing the streamed epoch.
func (t *LocalTier) EndEpoch(epoch uint64) error {
	if t.timing != nil {
		if err := t.timing.EndEpoch(epoch); err != nil {
			return err
		}
	}
	return t.repo.EndEpoch(epoch)
}

// Store implements Tier: it writes a complete epoch through the repository.
func (t *LocalTier) Store(ep *EpochData) error {
	t.storeMu.Lock()
	defer t.storeMu.Unlock()
	for id, data := range ep.Pages.All() {
		if err := t.WritePage(ep.Epoch, id, data, len(data)); err != nil {
			return fmt.Errorf("multilevel: tier %s epoch %d page %d: %w", t.name, ep.Epoch, id, err)
		}
	}
	if err := t.EndEpoch(ep.Epoch); err != nil {
		return fmt.Errorf("multilevel: tier %s seal epoch %d: %w", t.name, ep.Epoch, err)
	}
	return nil
}

// Load implements Tier, verifying record hashes on the way back.
func (t *LocalTier) Load(epoch uint64) (*EpochData, error) {
	m, err := ckpt.ReadManifest(t.fs, epoch)
	if err != nil {
		return nil, err
	}
	pages, _, err := t.fold([]ckpt.Manifest{m}, 1)
	if err != nil {
		return nil, err
	}
	return &EpochData{Epoch: epoch, PageSize: m.PageSize, Pages: pages}, nil
}

// fold reads chain entries winner-only (ckpt.FoldChain), billing a timing
// backend that models reads (storage.PageReader) for every page read.
func (t *LocalTier) fold(entries []ckpt.Manifest, workers int) (ckpt.PageSet, int, error) {
	pages, segments, err := ckpt.FoldChain(t.fs, entries, workers)
	if r, ok := t.timing.(storage.PageReader); ok && err == nil {
		epoch := entries[len(entries)-1].Epoch
		for id, data := range pages.All() {
			if err := r.ReadPage(epoch, id, len(data)); err != nil {
				return ckpt.PageSet{}, 0, fmt.Errorf("multilevel: tier %s epoch %d page %d read: %w", t.name, epoch, id, err)
			}
		}
	}
	return pages, segments, err
}

// PageIDs implements Tier from the epoch's manifest.
func (t *LocalTier) PageIDs(epoch uint64) ([]int, error) {
	m, err := ckpt.ReadManifest(t.fs, epoch)
	return m.Pages, err
}

// Has implements EpochHolder: a sealed manifest implies a complete copy
// (the repository writes the manifest last, as its commit point).
func (t *LocalTier) Has(epoch uint64) bool {
	_, err := ckpt.ReadManifest(t.fs, epoch)
	return err == nil
}

// Epochs implements Tier from the manifests' names, without decoding them:
// a damaged manifest is listed, and fails when the epoch is read.
func (t *LocalTier) Epochs() ([]uint64, error) {
	names, err := t.fs.List()
	var out []uint64
	for _, n := range names {
		var e uint64
		if k, err := fmt.Sscanf(n, "epoch-%d.json", &e); err == nil && k == 1 {
			out = append(out, e)
		}
	}
	return out, err
}

// Wipe deletes every file of the tier, simulating total loss of the fast
// local storage (node crash with ramdisk/SSD gone). Restore must then fall
// back to lower tiers.
func (t *LocalTier) Wipe() error {
	names, err := t.fs.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		if err := t.fs.Remove(n); err != nil {
			return err
		}
	}
	return nil
}
