package multilevel

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/netsim"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/storage"
)

const pageSize = 256

// pageFill returns the deterministic content of page p at version v.
func pageFill(p, v int) []byte {
	buf := make([]byte, pageSize)
	for i := range buf {
		buf[i] = byte(p*31 + v*7 + i)
	}
	return buf
}

// testHierarchy builds a 3-tier hierarchy on kernel-backed links: L1 = the
// checkpointing node's local disk, L2 = erasure shards (k=2, m=1) over
// three peer nodes' NICs, L3 = a PFS striped over two storage servers.
func testHierarchy(t *testing.T, k *sim.Kernel, tiers int) (*Hierarchy, *PeerTier, *LocalTier) {
	t.Helper()
	link := func(name string, bps float64, per time.Duration) *netsim.Link {
		return netsim.NewLink(k, netsim.LinkConfig{Name: name, BytesPerSec: bps, PerMessage: per})
	}
	disk := link("node0-disk", 55e6, 0)
	nic := link("node0-nic", 117.5e6, 0)

	local := NewLocalTier(k, "local", &ckpt.MemFS{}, pageSize, storage.NewSimDisk(disk))
	var lower []Tier
	var peer *PeerTier
	var pfs *LocalTier
	if tiers >= 2 {
		peers := make([]*PeerNode, 3)
		for i := range peers {
			peers[i] = NewPeerNode(fmt.Sprintf("node%d", i+1), link(fmt.Sprintf("node%d-nic", i+1), 117.5e6, 0))
		}
		var err error
		peer, err = NewPeerTier("peer", 2, 1, peers, nic)
		if err != nil {
			t.Fatal(err)
		}
		lower = append(lower, peer)
	}
	if tiers >= 3 {
		servers := []*netsim.Link{link("pfs0", 100e6, 10*time.Microsecond), link("pfs1", 100e6, 10*time.Microsecond)}
		pfs = NewLocalTier(k, "pfs", &ckpt.MemFS{}, pageSize, storage.NewSimPFS(nic, servers))
		lower = append(lower, pfs)
	}
	h, err := New(Config{Env: k, PageSize: pageSize, Local: local, Lower: lower})
	if err != nil {
		t.Fatal(err)
	}
	return h, peer, pfs
}

// runWorkload drives a page manager over the hierarchy: three checkpoints
// with shrinking dirty sets (all pages, half, a quarter), then returns a
// snapshot of the final region content.
func runWorkload(t *testing.T, k *sim.Kernel, h *Hierarchy, after func(snapshot []byte)) {
	t.Helper()
	space := pagemem.NewSpace(pageSize)
	mgr := core.NewManager(core.Config{
		Env:      k,
		Space:    space,
		Store:    h,
		Strategy: core.Adaptive,
		CowSlots: 4,
		Name:     "app",
	})
	const pages = 16
	region := space.Alloc(pages*pageSize, false)
	k.Go("app", func() {
		for epoch, frac := range []int{1, 2, 4} {
			for p := 0; p < pages/frac; p++ {
				region.Write(p*pageSize, pageFill(p, epoch+1))
			}
			mgr.Checkpoint()
		}
		mgr.WaitIdle()
		h.WaitDrained()
		snapshot := append([]byte(nil), region.Bytes()...)
		mgr.Close()
		if err := h.Close(); err != nil {
			t.Errorf("hierarchy close: %v", err)
		}
		after(snapshot)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Err(); err != nil {
		t.Fatal(err)
	}
}

func verifyImage(t *testing.T, im *ckpt.Image, snapshot []byte) {
	t.Helper()
	for p := 0; p*pageSize < len(snapshot); p++ {
		want := snapshot[p*pageSize : (p+1)*pageSize]
		if got := im.PageOr(p); !bytes.Equal(got, want) {
			t.Fatalf("page %d differs after restore", p)
		}
	}
}

func TestDrainReachesAllTiers(t *testing.T) {
	k := sim.NewKernel()
	h, peer, pfs := testHierarchy(t, k, 3)
	runWorkload(t, k, h, func(snapshot []byte) {
		for _, tier := range []Tier{h.Local(), peer, pfs} {
			es, err := tier.Epochs()
			if err != nil {
				t.Fatalf("%s epochs: %v", tier.Name(), err)
			}
			if len(es) != 3 {
				t.Errorf("tier %s holds %d epochs, want 3", tier.Name(), len(es))
			}
		}
		mans := h.Manifests()
		if len(mans) != 3 {
			t.Fatalf("got %d manifests, want 3", len(mans))
		}
		for _, m := range mans {
			if len(m.Tiers) != 3 {
				t.Fatalf("epoch %d manifest lists %d tiers", m.Epoch, len(m.Tiers))
			}
			for _, tc := range m.Tiers {
				if tc.State != StateStored {
					t.Errorf("epoch %d tier %s state %q", m.Epoch, tc.Tier, tc.State)
				}
			}
			if sl := m.Tiers[1].Shards; sl == nil || sl.Data != 2 || sl.Parity != 1 || len(sl.Nodes) != 3 {
				t.Errorf("epoch %d peer shard layout %+v", m.Epoch, m.Tiers[1].Shards)
			}
		}
		// The mirrored manifests are readable from the L1 filesystem.
		disk, err := ReadTierManifests(h.Local().FS())
		if err != nil {
			t.Fatal(err)
		}
		if len(disk) != 3 {
			t.Errorf("mirrored manifests: got %d, want 3", len(disk))
		}
	})
}

// TestRestoreAfterL1WipeAndPeerFailure is the acceptance scenario: total
// loss of the fast local tier plus one failed peer node, restored
// bit-identically from the surviving k-of-n erasure shards.
func TestRestoreAfterL1WipeAndPeerFailure(t *testing.T) {
	k := sim.NewKernel()
	h, peer, _ := testHierarchy(t, k, 2)
	runWorkload(t, k, h, func(snapshot []byte) {
		if err := h.Local().Wipe(); err != nil {
			t.Fatal(err)
		}
		peer.Nodes()[0].Fail()
		im, steps, err := h.Restore()
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if im.Epoch != 3 {
			t.Errorf("restart point epoch %d, want 3", im.Epoch)
		}
		for _, s := range steps {
			if s.Tier != "peer" {
				t.Errorf("epoch %d restored from %q, want peer", s.Epoch, s.Tier)
			}
		}
		verifyImage(t, im, snapshot)
	})
}

func TestRestorePrefersFastestTier(t *testing.T) {
	k := sim.NewKernel()
	h, _, _ := testHierarchy(t, k, 3)
	runWorkload(t, k, h, func(snapshot []byte) {
		im, steps, err := h.Restore()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range steps {
			if s.Tier != "local" {
				t.Errorf("epoch %d restored from %q, want local", s.Epoch, s.Tier)
			}
		}
		verifyImage(t, im, snapshot)
	})
}

func TestRestoreFallsToPFSWhenPeerLosesTooManyNodes(t *testing.T) {
	k := sim.NewKernel()
	h, peer, _ := testHierarchy(t, k, 3)
	runWorkload(t, k, h, func(snapshot []byte) {
		if err := h.Local().Wipe(); err != nil {
			t.Fatal(err)
		}
		// m=1 tolerates one failure; two exceed the parity budget.
		peer.Nodes()[0].Fail()
		peer.Nodes()[1].Fail()
		im, steps, err := h.Restore()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range steps {
			if s.Tier != "pfs" {
				t.Errorf("epoch %d restored from %q, want pfs", s.Epoch, s.Tier)
			}
		}
		verifyImage(t, im, snapshot)
	})
}

// flakyTier fails its first failures Store calls, then delegates. The call
// counter is guarded: the drainer may run several workers per tier.
type flakyTier struct {
	Tier
	failures int

	mu    sync.Mutex
	calls int
}

func (f *flakyTier) Store(ep *EpochData) error {
	f.mu.Lock()
	f.calls++
	fail := f.calls <= f.failures
	f.mu.Unlock()
	if fail {
		return errors.New("transient store failure")
	}
	return f.Tier.Store(ep)
}

func (f *flakyTier) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func TestDrainRetriesWithBackoff(t *testing.T) {
	k := sim.NewKernel()
	local := NewLocalTier(k, "local", &ckpt.MemFS{}, pageSize, nil)
	flaky := &flakyTier{Tier: NewLocalTier(k, "l2", &ckpt.MemFS{}, pageSize, nil), failures: 2}
	h, err := New(Config{
		Env: k, PageSize: pageSize, Local: local, Lower: []Tier{flaky},
		Drain: DrainPolicy{MaxAttempts: 4, RetryBackoff: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Go("app", func() {
		data := pageFill(0, 1)
		if err := h.WritePage(1, 0, data, len(data)); err != nil {
			t.Error(err)
		}
		if err := h.EndEpoch(1); err != nil {
			t.Error(err)
		}
		h.WaitDrained()
		if got := k.Now(); got < 30*time.Millisecond {
			t.Errorf("drain finished at %v, want >= 30ms (two backoffs of 10ms+20ms)", got)
		}
		if h.Err() != nil {
			t.Errorf("unexpected drain error: %v", h.Err())
		}
		if m := h.Manifests()[0]; m.Tiers[1].State != StateStored {
			t.Errorf("tier state %q after retries", m.Tiers[1].State)
		}
		if err := h.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if flaky.Calls() != 3 {
		t.Errorf("store attempts = %d, want 3", flaky.Calls())
	}
}

// A lower LocalTier whose segment publish fails once: the failed seal
// discards the epoch, so the drain's retry stores it again from its first
// page — not as a manifest of refs into a segment that was never published
// — and the tier alone restores the image after L1 is lost.
func TestDrainRetryAfterFailedSealStoresTheEpochAgain(t *testing.T) {
	k := sim.NewKernel()
	local := NewLocalTier(k, "local", &ckpt.MemFS{}, pageSize, nil)
	// Op 2 on the tier's filesystem is the first drained epoch's segment
	// publish (op 1 created it).
	pfsFS := faultfs.Wrap(&ckpt.MemFS{}, faultfs.Plan{FailOps: map[int64]error{2: errors.New("transient publish failure")}})
	pfs := NewLocalTier(k, "pfs", pfsFS, pageSize, nil)
	h, err := New(Config{
		Env: k, PageSize: pageSize, Local: local, Lower: []Tier{pfs},
		Drain: DrainPolicy{MaxAttempts: 3, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, k, h, func(snapshot []byte) {
		if err := h.Err(); err != nil {
			t.Fatalf("drain error after a retry that should have succeeded: %v", err)
		}
		for _, m := range h.Manifests() {
			if st := m.Tiers[1].State; st != StateStored {
				t.Errorf("epoch %d on pfs: %s", m.Epoch, st)
			}
		}
		if err := local.Wipe(); err != nil {
			t.Fatal(err)
		}
		im, steps, err := h.Restore()
		if err != nil {
			t.Fatalf("restore from the retried tier: %v", err)
		}
		if im.Epoch != 3 || len(steps) != 3 {
			t.Fatalf("restored epoch %d in %d steps, want epoch 3 in 3", im.Epoch, len(steps))
		}
		for _, s := range steps {
			if s.Tier != "pfs" {
				t.Errorf("epoch %d restored from %q, want pfs", s.Epoch, s.Tier)
			}
		}
		verifyImage(t, im, snapshot)
	})
}

// The retry delay doubles only up to MaxRetryBackoff: a large attempt
// budget against a persistently failing tier must retry at a steady capped
// cadence, not sleep for exponentially growing (effectively unbounded)
// intervals.
func TestDrainBackoffIsCapped(t *testing.T) {
	k := sim.NewKernel()
	local := NewLocalTier(k, "local", &ckpt.MemFS{}, pageSize, nil)
	flaky := &flakyTier{Tier: NewLocalTier(k, "l2", &ckpt.MemFS{}, pageSize, nil), failures: 9}
	h, err := New(Config{
		Env: k, PageSize: pageSize, Local: local, Lower: []Tier{flaky},
		Drain: DrainPolicy{
			MaxAttempts:     10,
			RetryBackoff:    10 * time.Millisecond,
			MaxRetryBackoff: 40 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Go("app", func() {
		data := pageFill(0, 1)
		if err := h.WritePage(1, 0, data, len(data)); err != nil {
			t.Error(err)
		}
		if err := h.EndEpoch(1); err != nil {
			t.Error(err)
		}
		h.WaitDrained()
		// 9 failed attempts sleep 10+20+40+40+... = 310ms total; uncapped
		// doubling would have slept 5.11s.
		if got, want := k.Now(), 310*time.Millisecond; got != want {
			t.Errorf("drain finished at %v, want exactly %v (capped backoff)", got, want)
		}
		if h.Err() != nil {
			t.Errorf("unexpected drain error: %v", h.Err())
		}
		if err := h.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if flaky.Calls() != 10 {
		t.Errorf("store attempts = %d, want 10", flaky.Calls())
	}
}

// brokenTier always fails.
type brokenTier struct{ Tier }

func (b *brokenTier) Store(ep *EpochData) error { return errors.New("tier permanently down") }

func TestDrainFailureIsRecordedAndForwarded(t *testing.T) {
	k := sim.NewKernel()
	local := NewLocalTier(k, "local", &ckpt.MemFS{}, pageSize, nil)
	broken := &brokenTier{Tier: NewLocalTier(k, "l2", &ckpt.MemFS{}, pageSize, nil)}
	l3 := NewLocalTier(k, "l3", &ckpt.MemFS{}, pageSize, nil)
	h, err := New(Config{
		Env: k, PageSize: pageSize, Local: local, Lower: []Tier{broken, l3},
		Drain: DrainPolicy{MaxAttempts: 2, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Go("app", func() {
		data := pageFill(3, 9)
		if err := h.WritePage(1, 3, data, len(data)); err != nil {
			t.Error(err)
		}
		if err := h.EndEpoch(1); err != nil {
			t.Error(err)
		}
		h.WaitDrained()
		m := h.Manifests()[0]
		if m.Tiers[1].State != StateFailed || m.Tiers[1].Err == "" {
			t.Errorf("broken tier copy = %+v, want failed with error", m.Tiers[1])
		}
		// The epoch still reached the tier below the broken one.
		if m.Tiers[2].State != StateStored {
			t.Errorf("l3 state %q, want stored past the broken tier", m.Tiers[2].State)
		}
		if h.Err() == nil {
			t.Error("Err() should surface the failed drain")
		}
		if err := h.Close(); err == nil {
			t.Error("Close should return the drain error")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartRedrainsExistingChain restarts a hierarchy over a surviving
// local tier with fresh (empty) lower tiers: the pre-existing epochs must
// be promoted again, so that losing the local tier after the restart still
// restores the WHOLE chain — including pages only written before the
// restart — and epoch numbering continues where it left off.
func TestRestartRedrainsExistingChain(t *testing.T) {
	env := sim.NewRealEnv()
	fs := &ckpt.MemFS{} // the durable local tier, shared across "processes"
	newPeer := func() *PeerTier {
		nodes := make([]*PeerNode, 3)
		for i := range nodes {
			nodes[i] = NewPeerNode(fmt.Sprintf("peer%d", i), nil)
		}
		p, err := NewPeerTier("peer", 2, 1, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// First process: two epochs, page 0 only ever written here.
	h1, err := New(Config{Env: env, PageSize: pageSize, Local: NewLocalTier(env, "local", fs, pageSize, nil), Lower: []Tier{newPeer()}})
	if err != nil {
		t.Fatal(err)
	}
	oldContent := pageFill(0, 1)
	for epoch := uint64(1); epoch <= 2; epoch++ {
		if err := h1.WritePage(epoch, 0, oldContent, len(oldContent)); err != nil {
			t.Fatal(err)
		}
		if err := h1.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same local FS, fresh empty peer tier.
	peer2 := newPeer()
	h2, err := New(Config{Env: env, PageSize: pageSize, Local: NewLocalTier(env, "local", fs, pageSize, nil), Lower: []Tier{peer2}})
	if err != nil {
		t.Fatal(err)
	}
	if last, ok := h2.LastEpoch(); !ok || last != 2 {
		t.Fatalf("LastEpoch = %d,%v, want 2,true", last, ok)
	}
	// The restarted process writes only page 1 — an incremental epoch that
	// does not cover page 0.
	newContent := pageFill(1, 9)
	if err := h2.WritePage(3, 1, newContent, len(newContent)); err != nil {
		t.Fatal(err)
	}
	if err := h2.EndEpoch(3); err != nil {
		t.Fatal(err)
	}
	h2.WaitDrained()
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
	if es, err := peer2.Epochs(); err != nil || len(es) != 3 {
		t.Fatalf("fresh peer tier holds %v (%v), want the re-drained chain 1..3", es, err)
	}

	// Local tier dies: the peers alone must reproduce the full chain.
	if err := h2.Local().Wipe(); err != nil {
		t.Fatal(err)
	}
	im, _, err := h2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 3 {
		t.Errorf("restart point %d, want 3", im.Epoch)
	}
	if !bytes.Equal(im.PageOr(0), oldContent) {
		t.Error("page 0 (written only before the restart) lost after L1 wipe")
	}
	if !bytes.Equal(im.PageOr(1), newContent) {
		t.Error("page 1 (written after the restart) lost after L1 wipe")
	}
}

// countingTier counts Store calls and preserves the inner tier's
// EpochHolder behavior, to observe what the drainer actually rewrites.
type countingTier struct {
	Tier
	stores int
}

func (c *countingTier) Store(ep *EpochData) error {
	c.stores++
	return c.Tier.Store(ep)
}

func (c *countingTier) Has(epoch uint64) bool {
	h, ok := c.Tier.(EpochHolder)
	return ok && h.Has(epoch)
}

// TestRestartSkipsEpochsHeldByDurableLowerTier restarts over a durable
// (FS-backed) lower tier: epochs it already holds must not be rewritten —
// re-storing would truncate a good copy in place — while the chain remains
// restorable from that tier after L1 loss.
func TestRestartSkipsEpochsHeldByDurableLowerTier(t *testing.T) {
	env := sim.NewRealEnv()
	localFS, pfsFS := &ckpt.MemFS{}, &ckpt.MemFS{} // both survive the "restart"
	build := func() (*Hierarchy, *countingTier) {
		pfs := &countingTier{Tier: NewLocalTier(env, "pfs", pfsFS, pageSize, nil)}
		h, err := New(Config{Env: env, PageSize: pageSize, Local: NewLocalTier(env, "local", localFS, pageSize, nil), Lower: []Tier{pfs}})
		if err != nil {
			t.Fatal(err)
		}
		return h, pfs
	}

	h1, pfs1 := build()
	data := pageFill(0, 1)
	for epoch := uint64(1); epoch <= 2; epoch++ {
		if err := h1.WritePage(epoch, 0, data, len(data)); err != nil {
			t.Fatal(err)
		}
		if err := h1.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	if pfs1.stores != 2 {
		t.Fatalf("first process stored %d epochs on pfs, want 2", pfs1.stores)
	}

	h2, pfs2 := build()
	h2.WaitDrained()
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
	if pfs2.stores != 0 {
		t.Errorf("restart rewrote %d epochs the pfs tier already held", pfs2.stores)
	}
	for _, m := range h2.Manifests() {
		if m.Tiers[1].State != StateStored {
			t.Errorf("epoch %d pfs state %q after recovery", m.Epoch, m.Tiers[1].State)
		}
	}
	if err := h2.Local().Wipe(); err != nil {
		t.Fatal(err)
	}
	im, _, err := h2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(im.PageOr(0), data) {
		t.Error("chain not restorable from the durable lower tier")
	}
}

// TestDegradedPeerStoreRecordedInManifest drains to an RS(2+1) peer tier
// with its targets impaired before the store. One node down or one receive
// link partitioned spends the m=1 budget: the copy is still recoverable, but
// the manifest must say "degraded", not "stored", and Has must be false so
// the drainer repairs it. Two nodes down exceed the budget and fail the
// store.
func TestDegradedPeerStoreRecordedInManifest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		impair  func(nodes []*PeerNode, nics []*netsim.Link)
		wantErr string // empty: the store degrades instead of failing
	}{
		{"node down", func(nodes []*PeerNode, _ []*netsim.Link) { nodes[1].Fail() }, ""},
		{"receive link down", func(_ []*PeerNode, nics []*netsim.Link) { nics[1].Fail() }, ""},
		{"m+1 nodes down", func(nodes []*PeerNode, _ []*netsim.Link) { nodes[0].Fail(); nodes[1].Fail() }, "would be unrecoverable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewRealEnv()
			nodes := make([]*PeerNode, 3)
			nics := make([]*netsim.Link, len(nodes))
			for i := range nodes {
				name := fmt.Sprintf("peer%d", i)
				nics[i] = netsim.NewLink(env, netsim.LinkConfig{Name: name + "-nic", BytesPerSec: 1e12})
				nodes[i] = NewPeerNode(name, nics[i])
			}
			peer, err := NewPeerTier("peer", 2, 1, nodes, nil)
			if err != nil {
				t.Fatal(err)
			}
			h, err := New(Config{
				Env: env, PageSize: pageSize, Local: NewLocalTier(env, "local", &ckpt.MemFS{}, pageSize, nil),
				Lower: []Tier{peer}, Drain: DrainPolicy{MaxAttempts: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			tc.impair(nodes, nics)
			data := pageFill(0, 4)
			if err := h.WritePage(1, 0, data, len(data)); err != nil {
				t.Fatal(err)
			}
			if err := h.EndEpoch(1); err != nil {
				t.Fatal(err)
			}
			h.WaitDrained()
			closeErr := h.Close()
			if peer.Has(1) {
				t.Error("impaired epoch reported as held (would never be repaired)")
			}
			tier := h.Manifests()[0].Tiers[1]
			if tc.wantErr != "" {
				if closeErr == nil || !strings.Contains(closeErr.Error(), tc.wantErr) {
					t.Errorf("Close: %v, want an error with %q", closeErr, tc.wantErr)
				}
				if tier.State != StateFailed || !strings.Contains(tier.Err, tc.wantErr) {
					t.Errorf("peer state %q err %q, want %q with %q", tier.State, tier.Err, StateFailed, tc.wantErr)
				}
				return
			}
			if closeErr != nil {
				t.Fatal(closeErr)
			}
			if tier.State != StateDegraded {
				t.Errorf("peer state %q, want %q", tier.State, StateDegraded)
			}
			if err := h.Local().Wipe(); err != nil {
				t.Fatal(err)
			}
			im, _, err := h.Restore()
			if err != nil {
				t.Fatalf("degraded copy should still restore: %v", err)
			}
			if !bytes.Equal(im.PageOr(0), data) {
				t.Error("degraded restore corrupt")
			}
		})
	}
}

// TestPeerTierShipsOneShardPerNode stores one epoch and checks the peer
// tier codes it as a single stripe: the sender link carries exactly one
// shard per target node, no more bytes than coding each page on its own
// would, and after losing m nodes every page comes back bit-identical in
// its own allocation.
func TestPeerTierShipsOneShardPerNode(t *testing.T) {
	const size, n = 4096, 37
	for _, rs := range []struct{ k, m int }{{2, 1}, {3, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("RS(%d+%d)", rs.k, rs.m), func(t *testing.T) {
			env := sim.NewRealEnv()
			link := func(name string) *netsim.Link {
				return netsim.NewLink(env, netsim.LinkConfig{Name: name, BytesPerSec: 1e12})
			}
			nodes := make([]*PeerNode, rs.k+rs.m)
			for i := range nodes {
				nodes[i] = NewPeerNode(fmt.Sprintf("peer%d", i), link(fmt.Sprintf("peer%d-nic", i)))
			}
			sender := link("sender")
			peer, err := NewPeerTier("peer", rs.k, rs.m, nodes, sender)
			if err != nil {
				t.Fatal(err)
			}
			pages := ckpt.NewPageSet(n)
			for p := 0; p < n; p++ {
				data := make([]byte, size)
				for i := range data {
					data[i] = byte(p*131 + i*7)
				}
				pages.Append(3*p, data)
			}
			if err := peer.Store(&EpochData{Epoch: 5, PageSize: size, Pages: pages}); err != nil {
				t.Fatal(err)
			}
			width := int64(rs.k + rs.m)
			shard := int64((n*size + rs.k - 1) / rs.k)
			perPage := int64(n) * width * int64((size+rs.k-1)/rs.k)
			st := sender.Stats()
			if st.Messages != width {
				t.Errorf("sender carried %d messages, want one per node (%d)", st.Messages, width)
			}
			if st.Bytes != width*shard || st.Bytes > perPage {
				t.Errorf("sender carried %d bytes, want %d (per-page coding: %d)", st.Bytes, width*shard, perPage)
			}
			for i := 0; i < rs.m; i++ {
				nodes[i].Fail()
			}
			got, err := peer.Load(5)
			if err != nil {
				t.Fatal(err)
			}
			if got.PageSize != size || !got.Pages.Equal(&pages) {
				t.Fatalf("reconstructed epoch differs (page size %d)", got.PageSize)
			}
			for id, data := range got.Pages.All() {
				if cap(data) != len(data) {
					t.Fatalf("page %d: cap %d != len %d, shares the decoded stripe", id, cap(data), len(data))
				}
			}
		})
	}
}

func TestHierarchyUnderRealClock(t *testing.T) {
	env := sim.NewRealEnv()
	local := NewLocalTier(env, "local", &ckpt.MemFS{}, pageSize, nil)
	peerNodes := make([]*PeerNode, 4)
	for i := range peerNodes {
		peerNodes[i] = NewPeerNode(fmt.Sprintf("peer%d", i), nil)
	}
	peer, err := NewPeerTier("peer", 3, 1, peerNodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{
		Env: env, PageSize: pageSize, Local: local, Lower: []Tier{peer},
		Drain: DrainPolicy{Workers: 2, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]byte{}
	for epoch := uint64(1); epoch <= 4; epoch++ {
		for p := 0; p < 8; p++ {
			data := pageFill(p, int(epoch))
			want[p] = data
			if err := h.WritePage(epoch, p, data, len(data)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	h.WaitDrained()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := local.Wipe(); err != nil {
		t.Fatal(err)
	}
	peerNodes[2].Fail()
	im, _, err := h.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for p, data := range want {
		if !bytes.Equal(im.PageOr(p), data) {
			t.Errorf("page %d differs", p)
		}
	}
}

// BenchmarkPeerTierLoad measures the k-of-n reconstruction of one epoch
// with two peers down, from a few pages to a full-sized epoch: 4 KiB pages
// over RS(4+2), no link model, so the decode and the page copies are all
// that is timed.
func BenchmarkPeerTierLoad(b *testing.B) {
	const size = 4096
	for _, n := range []int{8, 32, 63, 512} {
		b.Run(fmt.Sprintf("pages=%d", n), func(b *testing.B) {
			nodes := make([]*PeerNode, 6)
			for i := range nodes {
				nodes[i] = NewPeerNode(fmt.Sprintf("peer%d", i), nil)
			}
			peer, err := NewPeerTier("peer", 4, 2, nodes, nil)
			if err != nil {
				b.Fatal(err)
			}
			pages := ckpt.NewPageSet(n)
			for p := 0; p < n; p++ {
				pages.Append(p, bytes.Repeat([]byte{byte(p + 1)}, size))
			}
			if err := peer.Store(&EpochData{Epoch: 1, PageSize: size, Pages: pages}); err != nil {
				b.Fatal(err)
			}
			nodes[0].Fail()
			nodes[1].Fail()
			b.SetBytes(int64(n) * size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := peer.Load(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
