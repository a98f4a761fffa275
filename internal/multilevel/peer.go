package multilevel

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/erasure"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// minDecodeChunk is the fewest pages one reconstruction task covers: below
// it, claiming a task costs more than decoding its pages.
const minDecodeChunk = 8

// PeerNode is one remote node of the peer tier. It holds erasure shards in
// its memory (modeling a partner node's ramdisk) and may be backed by a
// netsim link so shard traffic contends with the node's other traffic in
// virtual time.
type PeerNode struct {
	name string
	nic  *netsim.Link // optional receive link

	mu     sync.Mutex
	down   bool                      //aickpt:guardedby mu
	shards map[uint64]map[int][]byte //aickpt:guardedby mu (epoch -> page -> shard)
}

// NewPeerNode returns a node named name; nic may be nil (no cost modeling).
func NewPeerNode(name string, nic *netsim.Link) *PeerNode {
	return &PeerNode{name: name, nic: nic, shards: map[uint64]map[int][]byte{}}
}

// Name returns the node's name.
func (n *PeerNode) Name() string { return n.name }

// Fail marks the node as failed: subsequent stores to it are dropped and
// loads from it return no shards.
func (n *PeerNode) Fail() {
	n.mu.Lock()
	n.down = true
	n.mu.Unlock()
}

// Recover brings a failed node back empty (its shard memory is gone).
func (n *PeerNode) Recover() {
	n.mu.Lock()
	n.down = false
	n.shards = map[uint64]map[int][]byte{}
	n.mu.Unlock()
}

// Down reports whether the node is failed.
func (n *PeerNode) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// put stores one shard; it reports false when the node is down.
func (n *PeerNode) put(epoch uint64, page int, shard []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return false
	}
	eps, ok := n.shards[epoch]
	if !ok {
		eps = map[int][]byte{}
		n.shards[epoch] = eps
	}
	eps[page] = shard
	return true
}

// get reads one shard back, or nil when the node is down or never got it.
func (n *PeerNode) get(epoch uint64, page int) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	return n.shards[epoch][page]
}

// peerEpochMeta is the tier's record of one stored epoch: the shard
// rotation start and each page's original length (needed to trim the
// zero-padded reconstruction). It models metadata replicated on the peers
// themselves, so it survives loss of the local tier.
type peerEpochMeta struct {
	start    int
	ids      []int // ascending, as Store received them
	sizes    []int // sizes[j] is the length of page ids[j]
	degraded bool  // some target nodes never received their shards
}

// PeerTier erasure-codes each page into k data + m parity shards and
// spreads them over k+m peer nodes, rotating the starting node per epoch
// for balance. Any k surviving shards reconstruct every page, so the tier
// tolerates up to m simultaneous node failures — the cost-effective
// alternative to replication (paper §3.2 ref [18], VELOC's partner tier).
type PeerTier struct {
	name   string
	coder  *erasure.Coder
	nodes  []*PeerNode
	sender *netsim.Link // optional: the checkpointing node's NIC

	mu   sync.Mutex
	meta map[uint64]*peerEpochMeta //aickpt:guardedby mu
}

// NewPeerTier builds a peer tier over len(nodes) >= k+m nodes. sender, the
// outbound link of the checkpointing node, may be nil.
func NewPeerTier(name string, k, m int, nodes []*PeerNode, sender *netsim.Link) (*PeerTier, error) {
	if len(nodes) < k+m {
		return nil, fmt.Errorf("multilevel: peer tier needs at least %d nodes, got %d", k+m, len(nodes))
	}
	return &PeerTier{
		name:   name,
		coder:  erasure.New(k, m),
		nodes:  nodes,
		sender: sender,
		meta:   map[uint64]*peerEpochMeta{},
	}, nil
}

// Name implements Tier.
func (t *PeerTier) Name() string { return t.name }

// Nodes returns the tier's nodes (failure injection, inspection).
func (t *PeerTier) Nodes() []*PeerNode { return t.nodes }

// width is the number of nodes an epoch's shards span.
func (t *PeerTier) width() int { return t.coder.K() + t.coder.M() }

// node returns the target of shard i for an epoch starting at start.
func (t *PeerTier) node(start, i int) *PeerNode {
	return t.nodes[(start+i)%len(t.nodes)]
}

// Store implements Tier. Shards destined for failed nodes are dropped; the
// store still succeeds (degraded) as long as at most m of the epoch's
// target nodes end up without a complete shard set, since any k shards
// reconstruct the data. Nodes that fail mid-store count against that
// budget too — a shard set with holes is as lost as a dead node.
func (t *PeerTier) Store(ep *EpochData) error {
	start := int(ep.Epoch) % len(t.nodes)
	failed := map[int]bool{} // shard slot -> node lost at least one shard
	for i := 0; i < t.width(); i++ {
		if t.node(start, i).Down() {
			failed[i] = true
		}
	}
	if len(failed) > t.coder.M() {
		return fmt.Errorf("multilevel: peer tier %s: %d of %d target nodes down, epoch %d would be unrecoverable",
			t.name, len(failed), t.width(), ep.Epoch)
	}
	sizes := make([]int, 0, ep.Pages.Len())
	for id, data := range ep.Pages.All() {
		shards := t.coder.Encode(data)
		for i, shard := range shards {
			n := t.node(start, i)
			if failed[i] || n.Down() {
				failed[i] = true
				continue
			}
			// The sender link is the checkpointing node's own NIC: with it
			// down no shard can leave the node, so the whole store fails
			// (retryably) rather than degrading.
			if t.sender != nil && !t.sender.TryTransfer(int64(len(shard))) {
				return fmt.Errorf("multilevel: peer tier %s: local NIC down storing epoch %d", t.name, ep.Epoch)
			}
			// A partitioned receive link loses just this node's shards;
			// the erasure budget absorbs it like a down node.
			if n.nic != nil && !n.nic.TryTransfer(int64(len(shard))) {
				failed[i] = true
				continue
			}
			if !n.put(ep.Epoch, id, shard) {
				failed[i] = true
			}
		}
		sizes = append(sizes, len(data))
	}
	if len(failed) > t.coder.M() {
		return fmt.Errorf("multilevel: peer tier %s: %d of %d target nodes lost shards mid-store, epoch %d unrecoverable",
			t.name, len(failed), t.width(), ep.Epoch)
	}
	t.mu.Lock()
	t.meta[ep.Epoch] = &peerEpochMeta{start: start, ids: slices.Clone(ep.Pages.IDs()), sizes: sizes, degraded: len(failed) > 0}
	t.mu.Unlock()
	return nil
}

// Has implements EpochHolder: only a complete (non-degraded) shard set
// counts, so a degraded epoch is re-stored — and thereby repaired — when
// the drainer sees it again.
func (t *PeerTier) Has(epoch uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	meta, ok := t.meta[epoch]
	return ok && !meta.degraded
}

// Degraded implements DegradedReporter.
func (t *PeerTier) Degraded(epoch uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	meta, ok := t.meta[epoch]
	return ok && meta.degraded
}

// Load implements Tier: it gathers whatever shards survive on the peers and
// reconstructs every page, succeeding as long as k shards per page remain.
// Shard gathering is serial — each fetch is a link transfer whose (virtual)
// time is the real cost being modeled — but the k-of-n reconstruction of
// the gathered pages is pure CPU, so it fans out in chunks of pages. The
// decoders run under a real Env whatever the tier's own: they touch no
// links, clocks or env primitives, so they are safe under the deterministic
// kernel (which they cost no virtual time).
func (t *PeerTier) Load(epoch uint64) (*EpochData, error) {
	t.mu.Lock()
	meta, ok := t.meta[epoch]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("multilevel: peer tier %s does not hold epoch %d", t.name, epoch)
	}
	ids := meta.ids
	sets := make([][][]byte, len(ids))
	for j, id := range ids {
		shards := make([][]byte, t.width())
		for i := range shards {
			n := t.node(meta.start, i)
			shards[i] = n.get(epoch, id)
			if shards[i] != nil && n.nic != nil && !n.nic.TryTransfer(int64(len(shards[i]))) {
				shards[i] = nil // partitioned link: the shard is unreachable
			}
		}
		sets[j] = shards
	}
	pages := ckpt.NewPageSet(len(ids))
	// One task per core, so an epoch of any size spreads over all of them.
	workers := runtime.GOMAXPROCS(0)
	chunk := max(minDecodeChunk, (len(ids)+workers-1)/workers)
	chunks := (len(ids) + chunk - 1) / chunk
	// The first failing chunk in page order wins, and within it the lowest
	// page, so the surfaced error does not depend on worker interleaving.
	err := sim.OrderedFanout(sim.NewRealEnv(), chunks, workers,
		func(c int) ([][]byte, error) {
			lo := c * chunk
			out := make([][]byte, min(chunk, len(ids)-lo))
			for j := range out {
				var err error
				if out[j], err = t.coder.Decode(sets[lo+j], meta.sizes[lo+j]); err != nil {
					return nil, fmt.Errorf("multilevel: peer tier %s epoch %d page %d: %w", t.name, epoch, ids[lo+j], err)
				}
			}
			return out, nil
		},
		func(c int, out [][]byte) error {
			for j, data := range out {
				pages.Append(ids[c*chunk+j], data)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	// Page size is not stored per epoch on the peers; infer it from the
	// largest page (pages are full-sized except possibly compressed ones,
	// which the hierarchy never sends here).
	pageSize := 0
	if len(meta.sizes) > 0 {
		pageSize = slices.Max(meta.sizes)
	}
	return &EpochData{Epoch: epoch, PageSize: pageSize, Pages: pages}, nil
}

// Epochs implements Tier.
func (t *PeerTier) Epochs() ([]uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, 0, len(t.meta))
	for e := range t.meta {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Layout implements Layouter for the tier manifest.
func (t *PeerTier) Layout(epoch uint64) *ShardLayout {
	t.mu.Lock()
	meta, ok := t.meta[epoch]
	t.mu.Unlock()
	if !ok {
		return nil
	}
	names := make([]string, t.width())
	for i := range names {
		names[i] = t.node(meta.start, i).Name()
	}
	return &ShardLayout{Data: t.coder.K(), Parity: t.coder.M(), Start: meta.start, Nodes: names}
}
