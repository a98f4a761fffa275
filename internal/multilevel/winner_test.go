package multilevel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestRestoreStopsBeforeEpochNoTierHolds: epoch 2's only lower-tier copy
// failed to drain (the sender link was down for every attempt), and L1 is
// then lost. Epoch 3 is on the peers, but the image at 3 needs epoch 2's
// page 0, which no tier holds: the restore must stop at epoch 1 and name
// epoch 2, not return epoch 3 with epoch 1's page 0 in it.
func TestRestoreStopsBeforeEpochNoTierHolds(t *testing.T) {
	k := sim.NewKernel()
	sender := netsim.NewLink(k, netsim.LinkConfig{Name: "sender", BytesPerSec: 117.5e6})
	nodes := make([]*PeerNode, 3)
	for i := range nodes {
		nodes[i] = NewPeerNode(fmt.Sprintf("node%d", i), nil)
	}
	peer, err := NewPeerTier("peer", 2, 1, nodes, sender)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{
		Env: k, PageSize: pageSize,
		Local: NewLocalTier(k, "local", &ckpt.MemFS{}, pageSize, nil),
		Lower: []Tier{peer},
		Drain: DrainPolicy{MaxAttempts: 2, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	seal := func(epoch uint64, pages ...int) {
		for _, p := range pages {
			if err := h.WritePage(epoch, p, pageFill(p, int(epoch)), pageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
		h.WaitDrained()
	}
	k.Go("app", func() {
		seal(1, 0, 1)
		sender.Fail()
		seal(2, 0)
		sender.Heal()
		seal(3, 1)
		if err := h.Close(); err == nil {
			t.Error("epoch 2's drain failure was not reported")
		}
		if err := h.Local().Wipe(); err != nil {
			t.Fatal(err)
		}
		im, steps, err := h.Restore()
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if im.Epoch != 1 {
			t.Fatalf("restart point = %d, want 1: epoch 2 is held by no tier (steps %+v)", im.Epoch, steps)
		}
		for p := 0; p <= 1; p++ {
			if !bytes.Equal(im.PageOr(p), pageFill(p, 1)) {
				t.Errorf("page %d is not epoch 1's", p)
			}
		}
		last := steps[len(steps)-1]
		if last.Epoch != 2 || last.Tier != "" {
			t.Errorf("last step = %+v, want epoch 2 unrecoverable", last)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreStopsBeforeSupersededEpochNeverDrained: a base folds epoch 2
// while it is still queued for the drain, so the drainer skips it and its
// content lives only in the base on L1. When L1 is lost, epoch 3 on the
// peers cannot be restored without epoch 2's page: the restore must stop
// at epoch 1 rather than fold around the hole.
func TestRestoreStopsBeforeSupersededEpochNeverDrained(t *testing.T) {
	k := sim.NewKernel()
	h, _, _ := testHierarchy(t, k, 2)
	seal := func(epoch uint64, page int) {
		if err := h.WritePage(epoch, page, pageFill(page, int(epoch)), pageSize); err != nil {
			t.Fatal(err)
		}
		if err := h.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	k.Go("app", func() {
		seal(1, 0)
		h.WaitDrained()
		seal(2, 0)
		// Fold [1,2] before the drainer has run: no fold gate, as a
		// compactor configured without one would.
		var pages ckpt.PageSet
		pages.Append(0, pageFill(0, 2))
		base, err := ckpt.WriteBase(h.Local().FS(), 1, 2, pageSize, &pages, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.MarkSuperseded(base)
		seal(3, 1)
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if err := h.Local().Wipe(); err != nil {
			t.Fatal(err)
		}
		im, steps, err := h.Restore()
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if im.Epoch != 1 || !bytes.Equal(im.PageOr(0), pageFill(0, 1)) {
			t.Fatalf("restored epoch %d (steps %+v), want epoch 1: epoch 2 never left L1", im.Epoch, steps)
		}
		if last := steps[len(steps)-1]; last.Epoch != 2 || last.Tier != "" {
			t.Errorf("last step = %+v, want epoch 2 unrecoverable", last)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// lossyPeer is a peer tier that lost epochs: gone ones entirely (shards
// and page lists), broken ones only their shards.
type lossyPeer struct {
	*PeerTier
	gone, broken map[uint64]bool
}

func (l *lossyPeer) Epochs() ([]uint64, error) {
	es, err := l.PeerTier.Epochs()
	return slices.DeleteFunc(es, func(e uint64) bool { return l.gone[e] }), err
}

func (l *lossyPeer) PageIDs(epoch uint64) ([]int, error) {
	if l.gone[epoch] {
		return nil, errors.New("epoch gone")
	}
	return l.PeerTier.PageIDs(epoch)
}

func (l *lossyPeer) Load(epoch uint64) (*EpochData, error) {
	if l.gone[epoch] || l.broken[epoch] {
		return nil, errors.New("shards lost")
	}
	return l.PeerTier.Load(epoch)
}

// TestRestoreWinnerOnlyMatchesOracle seals a seeded chain — every epoch
// writes a random page subset — through L1, RS(2+1) peers and a PFS, then
// damages it at random: L1 wiped or not, up to m peer nodes lost, a PFS
// epoch file removed, and one epoch lost, either with its page lists
// (no tier can describe it) or only its data (a winner-owning one moves
// the restart point, one that owns no winner does not). The restart point
// must be the newest epoch whose image the survivors still hold — never
// older than the intact prefix — the image must equal the oracle there,
// and exactly the epochs owning a page of it must be read.
func TestRestoreWinnerOnlyMatchesOracle(t *testing.T) {
	const epochs, pages = 8, 12
	kinds := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		writes := make([][]int, epochs+1)
		for e := 1; e <= epochs; e++ {
			for p := 0; p < pages; p++ {
				if rng.Intn(3) == 0 || p == e%pages {
					writes[e] = append(writes[e], p)
				}
			}
		}
		env := sim.NewRealEnv()
		localFS, pfsFS := &ckpt.MemFS{}, &ckpt.MemFS{}
		nodes := make([]*PeerNode, 3)
		for i := range nodes {
			nodes[i] = NewPeerNode(fmt.Sprintf("node%d", i), nil)
		}
		inner, err := NewPeerTier("peer", 2, 1, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		peer := &lossyPeer{PeerTier: inner, gone: map[uint64]bool{}, broken: map[uint64]bool{}}
		h, err := New(Config{
			Env: env, PageSize: pageSize,
			Local: NewLocalTier(env, "local", localFS, pageSize, nil),
			Lower: []Tier{peer, NewLocalTier(env, "pfs", pfsFS, pageSize, nil)},
		})
		if err != nil {
			t.Fatal(err)
		}
		for e := 1; e <= epochs; e++ {
			for _, p := range writes[e] {
				if err := h.WritePage(uint64(e), p, pageFill(p, e), pageSize); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.EndEpoch(uint64(e)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}

		wipe := rng.Intn(2) == 0
		lost, undescribed := uint64(rng.Intn(epochs+1)), rng.Intn(2) == 0 // lost 0: none
		pfsHit, pfsManifest := uint64(rng.Intn(epochs+1)), rng.Intn(2) == 0
		label := fmt.Sprintf("seed %d (wipe %v, lost %d undescribed %v, pfs %d manifest %v)",
			seed, wipe, lost, undescribed, pfsHit, pfsManifest)
		remove := func(fs ckpt.FS, epoch uint64, manifest bool) {
			_ = fs.Remove(fmt.Sprintf("epoch-%08d.pages", epoch))
			if manifest {
				_ = fs.Remove(fmt.Sprintf("epoch-%08d.json", epoch))
			}
		}
		if wipe {
			if err := h.Local().Wipe(); err != nil {
				t.Fatal(err)
			}
		}
		if lost > 0 {
			remove(localFS, lost, undescribed)
			remove(pfsFS, lost, undescribed)
			peer.gone[lost], peer.broken[lost] = undescribed, true
		}
		if pfsHit > 0 {
			remove(pfsFS, pfsHit, pfsManifest)
		}
		if rng.Intn(2) == 0 {
			nodes[rng.Intn(3)].Fail()
		}

		// The rule: every epoch but the lost one is still held somewhere.
		// An undescribed lost epoch ends the intact prefix; one whose page
		// list survives does only if it owns a page of the newest image.
		owns := func(e, at uint64) bool {
			for _, p := range writes[e] {
				newer := false
				for n := e + 1; n <= at; n++ {
					newer = newer || slices.Contains(writes[n], p)
				}
				if !newer {
					return true
				}
			}
			return false
		}
		want, prefix := uint64(epochs), uint64(epochs)
		if lost > 0 {
			prefix = lost - 1
			switch {
			case undescribed:
				kinds["undescribed"]++
				want = prefix
			case owns(lost, epochs):
				kinds["owns a winner"]++
				want = prefix
			default:
				kinds["owns none"]++
			}
		}
		if wipe {
			kinds["wiped"]++
		}

		im, steps, err := h.RestoreWith(RestoreOptions{Workers: 1 + int(seed%3)})
		if want == 0 {
			if err == nil {
				t.Errorf("%s: restored epoch %d, want an error", label, im.Epoch)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if im.Epoch != want || im.Epoch < prefix {
			t.Fatalf("%s: restart point %d, want %d (intact prefix %d); steps %+v", label, im.Epoch, want, prefix, steps)
		}
		var read, owners []uint64
		for _, s := range steps {
			if s.Tier != "" {
				read = append(read, s.Epoch)
			}
		}
		for e := uint64(1); e <= want; e++ {
			if owns(e, want) {
				owners = append(owners, e)
			}
		}
		if !slices.Equal(read, owners) {
			t.Errorf("%s: read epochs %v, want the winner owners %v", label, read, owners)
		}
		n := 0
		for p := 0; p < pages; p++ {
			for e := int(want); e >= 1; e-- {
				if slices.Contains(writes[e], p) {
					n++
					if !bytes.Equal(im.PageOr(p), pageFill(p, e)) {
						t.Errorf("%s: page %d is not epoch %d's", label, p, e)
					}
					break
				}
			}
		}
		if im.Pages.Len() != n {
			t.Errorf("%s: image holds %d pages, want %d", label, im.Pages.Len(), n)
		}
	}
	for _, k := range []string{"undescribed", "owns a winner", "owns none", "wiped"} {
		if kinds[k] == 0 {
			t.Errorf("no seed covers the %q damage", k)
		}
	}
	t.Logf("damage kinds: %v", kinds)
}

// countingPeer records which epochs a restore loads from the peer tier.
type countingPeer struct {
	*PeerTier
	mu    sync.Mutex
	loads []uint64
}

func (c *countingPeer) Load(epoch uint64) (*EpochData, error) {
	c.mu.Lock()
	c.loads = append(c.loads, epoch)
	c.mu.Unlock()
	return c.PeerTier.Load(epoch)
}

// TestRestoreLoadsOnlyWinnerOwningEpochs: after L1 is lost, the pick reads
// the peers' page lists, not their shards, so Load runs only for the epochs
// that own a page of the image — 7 to 10 of sealChain's ten — at every
// loader count.
func TestRestoreLoadsOnlyWinnerOwningEpochs(t *testing.T) {
	env := sim.NewRealEnv()
	nodes := make([]*PeerNode, 3)
	for i := range nodes {
		nodes[i] = NewPeerNode(fmt.Sprintf("node%d", i), nil)
	}
	inner, err := NewPeerTier("peer", 2, 1, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer := &countingPeer{PeerTier: inner}
	h, err := New(Config{
		Env: env, PageSize: pageSize,
		Local: NewLocalTier(env, "local", &ckpt.MemFS{}, pageSize, nil),
		Lower: []Tier{peer},
	})
	if err != nil {
		t.Fatal(err)
	}
	sealChain(t, h, 10)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Local().Wipe(); err != nil {
		t.Fatal(err)
	}
	nodes[0].Fail()
	for _, workers := range []int{1, 4} {
		peer.loads = nil
		im, _, err := h.RestoreWith(RestoreOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(peer.loads)
		if want := []uint64{7, 8, 9, 10}; !slices.Equal(peer.loads, want) {
			t.Errorf("workers=%d: peer loads %v, want %v", workers, peer.loads, want)
		}
		if im.Epoch != 10 || im.SegmentsRead != 4 {
			t.Errorf("workers=%d: epoch %d from %d epochs, want 10 from 4", workers, im.Epoch, im.SegmentsRead)
		}
		for p := 0; p < 20; p++ {
			if !bytes.Equal(im.PageOr(p), pageFill(p, newestWriter(p, 10))) {
				t.Errorf("workers=%d: page %d differs", workers, p)
			}
		}
	}
}
