package multilevel

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/erasure"
	"repro/internal/netsim"
)

// PeerNode is one remote node of the peer tier. It holds one erasure shard
// per epoch in its memory (modeling a partner node's ramdisk) and may be
// backed by a netsim link so shard traffic contends with the node's other
// traffic in virtual time.
type PeerNode struct {
	name string
	nic  *netsim.Link // optional receive link

	mu     sync.Mutex
	down   bool              //aickpt:guardedby mu
	shards map[uint64][]byte //aickpt:guardedby mu (epoch -> shard)
}

// NewPeerNode returns a node named name; nic may be nil (no cost modeling).
func NewPeerNode(name string, nic *netsim.Link) *PeerNode {
	return &PeerNode{name: name, nic: nic, shards: map[uint64][]byte{}}
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

// Down reports whether the node is failed.
func (n *PeerNode) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// put stores an epoch's shard; it reports false when the node is down.
func (n *PeerNode) put(epoch uint64, shard []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return false
	}
	n.shards[epoch] = shard
	return true
}

// get reads an epoch's shard back, or nil when the node is down or never
// got it.
func (n *PeerNode) get(epoch uint64) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	return n.shards[epoch]
}

// peerEpochMeta is the tier's record of one stored epoch: the shard
// rotation start, the page size and each page's original length (where it
// sits in the coded stripe). It models metadata replicated on the peers
// themselves, so it survives loss of the local tier.
type peerEpochMeta struct {
	start    int
	pageSize int
	ids      []int // ascending, as Store received them
	sizes    []int // sizes[j] is the length of page ids[j]
	degraded bool  // some target nodes never received their shards
}

// PeerTier erasure-codes each epoch, its pages laid end to end in page
// order, into k data + m parity shards and sends one shard to each of k+m
// peer nodes, rotating the starting node per epoch for balance. Any k
// surviving shards reconstruct the epoch, so the tier tolerates up to m
// simultaneous node failures — the cost-effective alternative to
// replication (paper §3.2 ref [18], VELOC's partner tier).
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
// target nodes end up without their shard, since any k shards reconstruct
// the data. Nodes that fail mid-store count against that budget too.
func (t *PeerTier) Store(ep *EpochData) error {
	start := int(ep.Epoch) % len(t.nodes)
	down := 0
	for i := 0; i < t.width(); i++ {
		if t.node(start, i).Down() {
			down++
		}
	}
	if down > t.coder.M() {
		return fmt.Errorf("multilevel: peer tier %s: %d of %d target nodes down, epoch %d would be unrecoverable",
			t.name, down, t.width(), ep.Epoch)
	}
	sizes := make([]int, 0, ep.Pages.Len())
	stripe := make([]byte, 0, ep.Pages.Len()*ep.PageSize)
	for _, data := range ep.Pages.All() {
		sizes = append(sizes, len(data))
		stripe = append(stripe, data...)
	}
	lost := 0
	for i, shard := range t.coder.Encode(stripe) {
		n := t.node(start, i)
		if n.Down() {
			lost++
			continue
		}
		// The sender link is the checkpointing node's own NIC: with it
		// down no shard can leave the node, so the whole store fails
		// (retryably) rather than degrading.
		if t.sender != nil && !t.sender.TryTransfer(int64(len(shard))) {
			return fmt.Errorf("multilevel: peer tier %s: local NIC down storing epoch %d", t.name, ep.Epoch)
		}
		// A partitioned receive link loses just this node's shard; the
		// erasure budget absorbs it like a down node.
		if (n.nic != nil && !n.nic.TryTransfer(int64(len(shard)))) || !n.put(ep.Epoch, shard) {
			lost++
		}
	}
	if lost > t.coder.M() {
		return fmt.Errorf("multilevel: peer tier %s: %d of %d target nodes lost shards mid-store, epoch %d unrecoverable",
			t.name, lost, t.width(), ep.Epoch)
	}
	t.mu.Lock()
	t.meta[ep.Epoch] = &peerEpochMeta{start: start, pageSize: ep.PageSize, ids: slices.Clone(ep.Pages.IDs()), sizes: sizes, degraded: lost > 0}
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

// Load implements Tier: it gathers whatever shards of the epoch survive on
// the peers, each fetch a link transfer whose (virtual) time is the cost
// being modeled, reconstructs the stripe once and cuts it into pages. It
// succeeds as long as k shards remain. Each page is its own copy, so the
// set does not pin the stripe.
func (t *PeerTier) Load(epoch uint64) (*EpochData, error) {
	t.mu.Lock()
	meta, ok := t.meta[epoch]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("multilevel: peer tier %s does not hold epoch %d", t.name, epoch)
	}
	shards := make([][]byte, t.width())
	for i := range shards {
		n := t.node(meta.start, i)
		shards[i] = n.get(epoch)
		if shards[i] != nil && n.nic != nil && !n.nic.TryTransfer(int64(len(shards[i]))) {
			shards[i] = nil // partitioned link: the shard is unreachable
		}
	}
	total := 0
	for _, size := range meta.sizes {
		total += size
	}
	stripe, err := t.coder.Decode(shards, total)
	if err != nil {
		return nil, fmt.Errorf("multilevel: peer tier %s epoch %d: %w", t.name, epoch, err)
	}
	pages := ckpt.NewPageSet(len(meta.ids))
	for j, id := range meta.ids {
		pages.Append(id, bytes.Clone(stripe[:meta.sizes[j]]))
		stripe = stripe[meta.sizes[j]:]
	}
	return &EpochData{Epoch: epoch, PageSize: meta.pageSize, Pages: pages}, nil
}

// PageIDs implements Tier from the tier's record of the epoch.
func (t *PeerTier) PageIDs(epoch uint64) ([]int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if meta, ok := t.meta[epoch]; ok {
		return meta.ids, nil
	}
	return nil, fmt.Errorf("multilevel: peer tier %s does not hold epoch %d", t.name, epoch)
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
