package aickpt

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/multilevel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TierKind names the kinds of tiers a checkpoint hierarchy can stack.
type TierKind int

const (
	// TierLocal is fast node-local storage (L1): a directory, or memory
	// when Dir is empty. Checkpoints are acknowledged once sealed here.
	TierLocal TierKind = iota
	// TierPeer erasure-codes pages into DataShards+ParityShards shards
	// spread over Nodes in-process peer stores, tolerating up to
	// ParityShards simultaneous node losses.
	TierPeer
	// TierPFS is the slowest, most resilient level: a directory on a
	// parallel file system mount (or memory when Dir is empty).
	TierPFS
)

// TierSpec describes one level of a checkpoint hierarchy, fastest first.
type TierSpec struct {
	Kind TierKind
	// Dir backs TierLocal/TierPFS tiers with a real directory; empty means
	// in-memory (tests, demos).
	Dir string
	// Nodes is the peer count for TierPeer; it must be at least
	// DataShards+ParityShards. Zero selects exactly
	// DataShards+ParityShards nodes.
	Nodes int
	// DataShards (k) and ParityShards (m) are the Reed-Solomon parameters
	// of a TierPeer tier: any k of the k+m shards reconstruct a page.
	DataShards, ParityShards int
}

// DrainPolicy bounds the background promotion of sealed checkpoints to
// lower tiers. The zero value selects defaults (queue depth 4, one worker
// per tier, 4 attempts, 10ms initial backoff doubling up to a 1s cap).
type DrainPolicy = multilevel.DrainPolicy

// Hierarchy is a multi-level checkpoint store: pages are acknowledged at
// local-tier speed and drained in the background to more resilient tiers.
// It implements Store, so it can back a Runtime directly (or be built for
// you via Options.Tiers). Restore is tier-aware: each page's newest copy
// is read once, from the fastest tier that still holds it, reconstructing
// from surviving erasure shards when faster copies are lost.
type Hierarchy struct {
	inner *multilevel.Hierarchy
	peers []*multilevel.PeerTier
}

// NewHierarchy assembles a hierarchy from tier specs, fastest first. The
// first spec must be TierLocal.
func NewHierarchy(pageSize int, specs []TierSpec, drain DrainPolicy) (*Hierarchy, error) {
	return newHierarchy(pageSize, specs, drain, nil)
}

// newHierarchy additionally attaches an observability metric set: the L1
// repository records its write-path families and the drain pipeline its
// queue/retry/promotion families. A runtime built with Options.Tiers
// passes its metrics through here; standalone NewHierarchy callers get an
// uninstrumented hierarchy.
func newHierarchy(pageSize int, specs []TierSpec, drain DrainPolicy, metrics *obs.Metrics) (*Hierarchy, error) {
	if pageSize <= 0 {
		pageSize = 4096
	}
	if len(specs) == 0 || specs[0].Kind != TierLocal {
		return nil, fmt.Errorf("aickpt: hierarchy needs a TierLocal first tier")
	}
	env := sim.NewRealEnv()
	h := &Hierarchy{}
	var local *multilevel.LocalTier
	var lower []multilevel.Tier
	// Tier names must be unique: manifests and restore steps identify
	// tiers by name. The first tier of each kind keeps the bare name.
	used := map[string]int{}
	uniqueName := func(base string) string {
		used[base]++
		if used[base] == 1 {
			return base
		}
		return fmt.Sprintf("%s%d", base, used[base])
	}
	for i, spec := range specs {
		switch spec.Kind {
		case TierLocal, TierPFS:
			base := "local"
			if spec.Kind == TierPFS {
				base = "pfs"
			}
			name := uniqueName(base)
			var fs ckpt.FS
			if spec.Dir != "" {
				osfs, err := ckpt.NewOSFS(spec.Dir)
				if err != nil {
					return nil, err
				}
				fs = osfs
			} else {
				fs = &ckpt.MemFS{}
			}
			t := multilevel.NewLocalTier(env, name, fs, pageSize, nil)
			if i == 0 {
				local = t
			} else {
				lower = append(lower, t)
			}
		case TierPeer:
			if i == 0 {
				return nil, fmt.Errorf("aickpt: TierPeer cannot be the first tier")
			}
			k, m := spec.DataShards, spec.ParityShards
			if k <= 0 {
				k = 2
			}
			if m <= 0 {
				m = 1
			}
			n := spec.Nodes
			if n == 0 {
				n = k + m
			}
			if n < k+m {
				return nil, fmt.Errorf("aickpt: TierPeer needs Nodes >= DataShards+ParityShards (%d), got %d", k+m, n)
			}
			name := uniqueName("peer")
			nodes := make([]*multilevel.PeerNode, n)
			for j := range nodes {
				nodes[j] = multilevel.NewPeerNode(fmt.Sprintf("%s-node%d", name, j), nil)
			}
			peer, err := multilevel.NewPeerTier(name, k, m, nodes, nil)
			if err != nil {
				return nil, err
			}
			h.peers = append(h.peers, peer)
			lower = append(lower, peer)
		default:
			return nil, fmt.Errorf("aickpt: unknown tier kind %d", spec.Kind)
		}
	}
	if metrics != nil {
		// L1 only: lower-tier stores re-write the same records and would
		// double-count the repository families.
		local.SetMetrics(metrics)
	}
	inner, err := multilevel.New(multilevel.Config{
		Env:      env,
		PageSize: pageSize,
		Local:    local,
		Lower:    lower,
		Drain:    drain,
		Metrics:  metrics,
	})
	if err != nil {
		return nil, err
	}
	h.inner = inner
	return h, nil
}

// WritePage implements Store.
func (h *Hierarchy) WritePage(epoch uint64, page int, data []byte, size int) error {
	return h.inner.WritePage(epoch, page, data, size)
}

// EndEpoch implements Store: the checkpoint is acknowledged once sealed on
// the local tier; lower tiers fill in asynchronously.
func (h *Hierarchy) EndEpoch(epoch uint64) error { return h.inner.EndEpoch(epoch) }

// WaitDrained blocks until every sealed checkpoint has reached (or
// definitively failed to reach) every tier.
func (h *Hierarchy) WaitDrained() { h.inner.WaitDrained() }

// Err returns the first background drain error, if any.
func (h *Hierarchy) Err() error { return h.inner.Err() }

// Close drains in-flight promotions and stops the drain workers.
func (h *Hierarchy) Close() error { return h.inner.Close() }

// Restore rebuilds the newest image the tiers can still prove, reading
// only the epochs that own a page of it, each from the fastest surviving
// tier, and reports their sources and any epoch that set the restart point
// back. Reads overlap across min(GOMAXPROCS, 8) readers while the fold
// stays in chain order, so the image and the sources are the same for any
// count; use RestoreWorkers to pin it.
func (h *Hierarchy) Restore() (*Image, []TierRestoreStep, error) {
	return h.RestoreWorkers(0)
}

// RestoreWorkers is Restore with an explicit epoch-loader count; 0 picks
// min(GOMAXPROCS, 8).
func (h *Hierarchy) RestoreWorkers(workers int) (*Image, []TierRestoreStep, error) {
	if workers <= 0 {
		workers = ckpt.DefaultRestoreWorkers()
	}
	im, steps, err := h.inner.RestoreWith(multilevel.RestoreOptions{Workers: workers})
	if err != nil {
		return nil, steps, err
	}
	return &Image{PageSize: im.PageSize, Epoch: im.Epoch, inner: im}, steps, nil
}

// Manifests returns the per-epoch tier manifests: which tiers hold each
// epoch, in what state, and the erasure shard layout on sharding tiers.
func (h *Hierarchy) Manifests() []EpochTierManifest {
	return h.inner.Manifests()
}

// FailPeerNode marks node index node of the first peer tier as failed:
// its shards become unreadable and new shards destined for it are dropped.
// It is the failure-injection hook for tests and demos.
func (h *Hierarchy) FailPeerNode(node int) error {
	if len(h.peers) == 0 {
		return fmt.Errorf("aickpt: hierarchy has no peer tier")
	}
	nodes := h.peers[0].Nodes()
	if node < 0 || node >= len(nodes) {
		return fmt.Errorf("aickpt: peer node %d out of range [0,%d)", node, len(nodes))
	}
	nodes[node].Fail()
	return nil
}

// WipeLocal deletes every file of the local tier, simulating total loss of
// the fast storage; Restore must then fall back to lower tiers.
func (h *Hierarchy) WipeLocal() error { return h.inner.Local().Wipe() }

// TierRestoreStep documents where one epoch came from during Restore:
// the serving tier (empty when the epoch was unrecoverable) and why faster
// tiers were skipped.
type TierRestoreStep = multilevel.RestoreStep

// EpochTierManifest records where one checkpoint epoch lives: its page
// geometry and one TierCopyReport per tier. Base is set on the manifest of
// a compacted base segment, promoted through the hierarchy in place of the
// epochs [Base.From, Base.To] it folded.
type EpochTierManifest = multilevel.EpochManifest

// TierCopyReport is one tier's relationship to an epoch: "stored",
// "draining", "degraded", "failed" or "superseded", plus the shard layout
// on sharding tiers.
type TierCopyReport = multilevel.TierCopy

// ShardLayoutReport describes the erasure layout of an epoch on a peer
// tier: k data + m parity shards, shard i on Nodes[i].
type ShardLayoutReport = multilevel.ShardLayout

// InspectTiers reads the tier manifests mirrored into a checkpoint
// directory (the tiers-NNNNNNNN.json files written next to the epoch
// files) — the offline view of where each epoch lives; it backs the
// ckpt-inspect tool.
func InspectTiers(dir string) ([]EpochTierManifest, error) {
	fs, err := ckpt.OpenOSFS(dir)
	if err != nil {
		return nil, err
	}
	return multilevel.ReadTierManifests(fs)
}
