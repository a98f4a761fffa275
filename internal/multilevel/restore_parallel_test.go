package multilevel

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// sealChain writes epochs 1..n straight through the hierarchy's streaming
// L1 path: each epoch dirties an overlapping window of pages so the fold
// order matters (newest epoch must win on every overlap).
func sealChain(t *testing.T, h *Hierarchy, n int) {
	t.Helper()
	for e := 1; e <= n; e++ {
		base := (e % 4) * 4
		for p := base; p < base+8; p++ {
			data := pageFill(p, e)
			if err := h.WritePage(uint64(e), p, data, len(data)); err != nil {
				t.Fatalf("write epoch %d page %d: %v", e, p, err)
			}
		}
		if err := h.EndEpoch(uint64(e)); err != nil {
			t.Fatalf("seal epoch %d: %v", e, err)
		}
	}
}

// compareRestores asserts a serial and a pipelined restore agreed bit for
// bit: same pages, same restart epoch, same segment count, same per-epoch
// steps, same error text.
func compareRestores(t *testing.T, label string,
	serIm *ckpt.Image, serSteps []RestoreStep, serErr error,
	parIm *ckpt.Image, parSteps []RestoreStep, parErr error) {
	t.Helper()
	if (serErr == nil) != (parErr == nil) || (serErr != nil && serErr.Error() != parErr.Error()) {
		t.Fatalf("%s: error mismatch: serial=%v parallel=%v", label, serErr, parErr)
	}
	if !reflect.DeepEqual(serSteps, parSteps) {
		t.Fatalf("%s: steps mismatch:\nserial:   %+v\nparallel: %+v", label, serSteps, parSteps)
	}
	if serErr != nil {
		return
	}
	if serIm.Epoch != parIm.Epoch || serIm.SegmentsRead != parIm.SegmentsRead {
		t.Fatalf("%s: epoch/segments mismatch: serial epoch=%d segs=%d, parallel epoch=%d segs=%d",
			label, serIm.Epoch, serIm.SegmentsRead, parIm.Epoch, parIm.SegmentsRead)
	}
	if serIm.Pages.Len() != parIm.Pages.Len() {
		t.Fatalf("%s: page count mismatch: serial=%d parallel=%d", label, serIm.Pages.Len(), parIm.Pages.Len())
	}
	for id, want := range serIm.Pages.All() {
		if got, ok := parIm.Pages.Get(id); !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s: page %d differs between serial and parallel restore", label, id)
		}
	}
}

// TestRestorePipelinedMatchesSerial seals a wide chain under the
// virtual-time kernel and compares a serial restore against pipelined
// restores at several worker counts, in three damage states: intact
// (everything served by L1), L1 wiped (erasure reconstruction from the
// peers), and L1 wiped plus one failed peer node (degraded
// reconstruction). Every variant must produce a bit-identical image and
// identical per-epoch steps. The hierarchy carries no Metrics, so this is
// also the nil-obs regression test for the pipelined path: loaders and
// folder must run with h.obs == nil without touching it.
func TestRestorePipelinedMatchesSerial(t *testing.T) {
	const epochs = 10
	k := sim.NewKernel()
	h, peer, _ := testHierarchy(t, k, 3)
	k.Go("app", func() {
		sealChain(t, h, epochs)
		h.WaitDrained()
		if err := h.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		check := func(label string) {
			serIm, serSteps, serErr := h.RestoreWith(RestoreOptions{Workers: 1})
			for _, workers := range []int{2, 4, 8} {
				parIm, parSteps, parErr := h.RestoreWith(RestoreOptions{Workers: workers})
				compareRestores(t, fmt.Sprintf("%s/workers=%d", label, workers),
					serIm, serSteps, serErr, parIm, parSteps, parErr)
			}
			if serErr == nil && serIm.Epoch != epochs {
				t.Fatalf("%s: restart epoch = %d, want %d", label, serIm.Epoch, epochs)
			}
		}

		check("intact")
		if err := h.Local().Wipe(); err != nil {
			t.Fatal(err)
		}
		check("l1-wiped")
		peer.Nodes()[1].Fail()
		check("l1-wiped+peer-degraded")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreVirtualTimeIsReproducible runs the same degraded restore —
// L1 wiped, one peer down, so every epoch is an erasure reconstruction over
// contended links — in two fresh kernels per width. The virtual instant the
// restore ends must not differ between the two runs: loaders are kernel
// processes claiming epochs in a fixed order, so nothing about the host
// (scheduler, core count, decode pool) may leak into the simulated
// timeline. More loaders must also finish no later than one.
func TestRestoreVirtualTimeIsReproducible(t *testing.T) {
	run := func(workers int) (took time.Duration) {
		k := sim.NewKernel()
		h, peer, _ := testHierarchy(t, k, 3)
		k.Go("app", func() {
			sealChain(t, h, 10)
			h.WaitDrained()
			if err := h.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := h.Local().Wipe(); err != nil {
				t.Fatal(err)
			}
			peer.Nodes()[1].Fail()
			start := k.Now()
			if _, _, err := h.RestoreWith(RestoreOptions{Workers: workers}); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			took = k.Now() - start
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	one := run(1)
	for _, workers := range []int{1, 4} {
		a, b := run(workers), run(workers)
		if a != b || a <= 0 {
			t.Errorf("workers=%d: two runs restored in %v and %v of virtual time", workers, a, b)
		}
		if a > one {
			t.Errorf("workers=%d restored in %v, slower than one loader's %v", workers, a, one)
		}
	}
}

// TestRestorePipelinedSpansMatchSerial runs the pipelined restore with a
// flight recorder attached: it must emit exactly one restore span per
// epoch with the same epoch→tier attribution as the serial restore's
// steps. Span *timestamps* may interleave (loads overlap by design), but
// attribution is part of the restore contract and must not change.
func TestRestorePipelinedSpansMatchSerial(t *testing.T) {
	k := sim.NewKernel()
	met := obs.New(k.Now)
	met.Spans = obs.NewSpanLog(128)
	h, _, _ := metricsHierarchy(t, k, 2, met)
	k.Go("app", func() {
		sealChain(t, h, 8)
		h.WaitDrained()
		if err := h.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := h.Local().Wipe(); err != nil {
			t.Fatal(err)
		}
		_, steps, err := h.RestoreWith(RestoreOptions{Workers: 1})
		if err != nil {
			t.Fatalf("serial restore: %v", err)
		}
		before := len(met.Spans.Snapshot())
		im, psteps, err := h.RestoreWith(RestoreOptions{Workers: 4})
		if err != nil {
			t.Fatalf("pipelined restore: %v", err)
		}
		if !reflect.DeepEqual(steps, psteps) {
			t.Fatalf("steps mismatch:\nserial:    %+v\npipelined: %+v", steps, psteps)
		}
		byEpoch := map[uint64]obs.Span{}
		for _, s := range met.Spans.Snapshot()[before:] {
			if s.Kind == obs.SpanRestore {
				byEpoch[s.Epoch] = s
			}
		}
		if len(byEpoch) != len(steps) {
			t.Fatalf("got %d restore spans, want one per step (%d)", len(byEpoch), len(steps))
		}
		for _, st := range steps {
			s, ok := byEpoch[st.Epoch]
			if !ok {
				t.Fatalf("no restore span for epoch %d", st.Epoch)
			}
			if s.Tier != 1 {
				t.Errorf("epoch %d span attributed to tier %d, want 1 (peer)", st.Epoch, s.Tier)
			}
			if s.Dur() < 0 {
				t.Errorf("epoch %d span has negative duration", st.Epoch)
			}
		}
		if im.Epoch != 8 {
			t.Fatalf("restart epoch = %d, want 8", im.Epoch)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// cutoffTier serves only epochs below cutoff, simulating a lower tier
// that lost the tail of the chain.
type cutoffTier struct {
	Tier
	cutoff uint64
}

func (c *cutoffTier) Load(epoch uint64) (*EpochData, error) {
	if epoch >= c.cutoff {
		return nil, errors.New("cutoff: epoch lost")
	}
	return c.Tier.Load(epoch)
}

// TestRestorePipelinedStopsAtIntactPrefix breaks the chain mid-way (L1
// wiped, the only lower tier lost epochs >= 5): serial and pipelined
// restores must both fold exactly the intact prefix 1..4, report the same
// unrecoverable step for epoch 5, and discard in-flight loads past the
// break without folding them.
func TestRestorePipelinedStopsAtIntactPrefix(t *testing.T) {
	env := sim.NewRealEnv()
	local := NewLocalTier(env, "local", &ckpt.MemFS{}, pageSize, nil)
	backing := NewLocalTier(env, "lower", &ckpt.MemFS{}, pageSize, nil)
	h, err := New(Config{
		Env: env, PageSize: pageSize, Local: local,
		Lower: []Tier{&cutoffTier{Tier: backing, cutoff: 5}},
		Drain: DrainPolicy{RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sealChain(t, h, 8)
	h.WaitDrained()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := local.Wipe(); err != nil {
		t.Fatal(err)
	}
	serIm, serSteps, serErr := h.RestoreWith(RestoreOptions{Workers: 1})
	if serErr != nil {
		t.Fatalf("serial restore: %v", serErr)
	}
	if serIm.Epoch != 4 {
		t.Fatalf("serial restart epoch = %d, want 4 (intact prefix)", serIm.Epoch)
	}
	last := serSteps[len(serSteps)-1]
	if last.Tier != "" || last.Epoch != 5 {
		t.Fatalf("last serial step = %+v, want unrecoverable epoch 5", last)
	}
	for _, workers := range []int{2, 4, 8} {
		parIm, parSteps, parErr := h.RestoreWith(RestoreOptions{Workers: workers})
		compareRestores(t, fmt.Sprintf("prefix/workers=%d", workers),
			serIm, serSteps, serErr, parIm, parSteps, parErr)
	}
}

// realEnvHierarchy builds a timing-free 2-tier hierarchy under the real
// clock for race tests.
func realEnvHierarchy(t *testing.T) (*Hierarchy, *LocalTier) {
	t.Helper()
	env := sim.NewRealEnv()
	local := NewLocalTier(env, "local", &ckpt.MemFS{}, pageSize, nil)
	nodes := make([]*PeerNode, 3)
	for i := range nodes {
		nodes[i] = NewPeerNode(fmt.Sprintf("peer%d", i), nil)
	}
	peer, err := NewPeerTier("peer", 2, 1, nodes, nil)
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
	return h, local
}

// TestRestoreConcurrentWithDrain starts pipelined restores while the
// background drainer is still promoting epochs to the peer tier. Restores
// read the sealed chain off L1 while the drainer loads the same epochs
// and stores shards — the race detector checks the shared structures
// (MemFS, repository, peer stores, manifests) stay properly guarded.
func TestRestoreConcurrentWithDrain(t *testing.T) {
	h, _ := realEnvHierarchy(t)
	sealChain(t, h, 8)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			im, _, err := h.RestoreWith(RestoreOptions{Workers: 4})
			if err != nil {
				t.Errorf("restore during drain: %v", err)
				return
			}
			if im.Epoch != 8 {
				t.Errorf("restore during drain folded to epoch %d, want 8", im.Epoch)
			}
		}()
	}
	wg.Wait()
	h.WaitDrained()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreConcurrentWithScrub runs a pipelined restore concurrently
// with a scrub pass over the same chain: scrub verification is read-only
// and repairs publish atomically, so both must succeed and the restored
// image must be complete.
func TestRestoreConcurrentWithScrub(t *testing.T) {
	h, _ := realEnvHierarchy(t)
	sealChain(t, h, 8)
	h.WaitDrained()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rep, err := h.Scrub()
		if err != nil {
			t.Errorf("scrub during restore: %v", err)
			return
		}
		if rep.Corrupt != 0 {
			t.Errorf("scrub found %d corrupt entries on a healthy chain", rep.Corrupt)
		}
	}()
	go func() {
		defer wg.Done()
		im, _, err := h.RestoreWith(RestoreOptions{Workers: 4})
		if err != nil {
			t.Errorf("restore during scrub: %v", err)
			return
		}
		for e := 1; e <= 8; e++ {
			base := (e % 4) * 4
			for p := base; p < base+8; p++ {
				// Later epochs overwrite overlapping windows; only check
				// pages whose newest writer is epoch e.
				if newestWriter(p, 8) == e && !bytes.Equal(im.PageOr(p), pageFill(p, e)) {
					t.Errorf("page %d differs after restore concurrent with scrub", p)
				}
			}
		}
	}()
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// newestWriter returns the highest epoch <= n whose sealChain window
// covers page p (0 if none).
func newestWriter(p, n int) int {
	for e := n; e >= 1; e-- {
		base := (e % 4) * 4
		if p >= base && p < base+8 {
			return e
		}
	}
	return 0
}
