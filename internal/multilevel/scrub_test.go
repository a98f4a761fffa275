package multilevel

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compact"
	"repro/internal/faultfs"
	"repro/internal/sim"
)

// scrubHierarchy builds a two-tier hierarchy (local + pfs, both MemFS) under
// the real clock, seals three epochs with distinct content and drains them.
func scrubHierarchy(t *testing.T) (*Hierarchy, *ckpt.MemFS, *ckpt.MemFS) {
	t.Helper()
	env := sim.NewRealEnv()
	localFS, pfsFS := &ckpt.MemFS{}, &ckpt.MemFS{}
	h, err := New(Config{
		Env: env, PageSize: pageSize,
		Local: NewLocalTier(env, "local", localFS, pageSize, nil),
		Lower: []Tier{NewLocalTier(env, "pfs", pfsFS, pageSize, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(1); epoch <= 3; epoch++ {
		for p := 0; p <= int(epoch); p++ {
			data := pageFill(p, int(epoch))
			if err := h.WritePage(epoch, p, data, len(data)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	h.WaitDrained()
	return h, localFS, pfsFS
}

func restoreSnapshot(t *testing.T, h *Hierarchy) map[int][]byte {
	t.Helper()
	im, _, err := h.Restore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	out := map[int][]byte{}
	for p, d := range im.Pages.All() {
		out[p] = append([]byte(nil), d...)
	}
	return out
}

func TestScrubRepairsBitFlippedSegmentFromLowerTier(t *testing.T) {
	h, localFS, _ := scrubHierarchy(t)
	want := restoreSnapshot(t, h)
	// Flip a payload bit of epoch 2's segment: silent media corruption.
	if err := faultfs.FlipBit(localFS, "epoch-00000002.pages", (20+17)*8); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Repaired != 1 || rep.Unrepaired != 0 {
		t.Fatalf("report = %+v, want 1 corrupt / 1 repaired", rep)
	}
	found := false
	for _, e := range rep.Entries {
		if e.Epoch == 2 && e.Status == ckpt.StatusSegmentCorrupt {
			found = true
			if !strings.Contains(e.Action, "repaired from pfs") {
				t.Errorf("entry action = %q, want repaired from pfs", e.Action)
			}
		}
	}
	if !found {
		t.Fatalf("no segment-corrupt entry for epoch 2 in %+v", rep.Entries)
	}
	// The damaged bytes were preserved for post-mortem.
	names, err := localFS.List()
	if err != nil {
		t.Fatal(err)
	}
	quarantined := false
	for _, n := range names {
		if strings.HasPrefix(n, ckpt.QuarantinePrefix) {
			quarantined = true
		}
	}
	if !quarantined {
		t.Error("corrupt segment was not quarantined")
	}
	// The chain is healthy again and restores bit-identically from L1.
	health, err := ckpt.VerifyChain(localFS)
	if err != nil {
		t.Fatal(err)
	}
	for _, hs := range health {
		if hs.Status != ckpt.StatusOK {
			t.Errorf("post-repair entry %s status %q", hs.Manifest, hs.Status)
		}
	}
	im, steps, err := h.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if s.Tier != "local" {
			t.Errorf("epoch %d restored from %q after repair, want local", s.Epoch, s.Tier)
		}
	}
	for p, data := range want {
		if !bytes.Equal(im.PageOr(p), data) {
			t.Errorf("page %d differs after repair", p)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScrubRepairsInteriorManifest(t *testing.T) {
	h, localFS, _ := scrubHierarchy(t)
	want := restoreSnapshot(t, h)
	// Epoch 1's manifest is interior damage: epochs 2 and 3 are intact
	// above it, so it cannot be a torn tail.
	if err := faultfs.TruncateFile(localFS, "epoch-00000001.json", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.LoadChain(localFS); err == nil {
		t.Fatal("strict chain load should reject an interior corrupt manifest")
	}
	rep, err := h.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("report = %+v, want 1 repaired", rep)
	}
	if _, err := ckpt.ReadManifest(localFS, 1); err != nil {
		t.Fatalf("epoch 1 manifest unreadable after repair: %v", err)
	}
	im, _, err := h.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for p, data := range want {
		if !bytes.Equal(im.PageOr(p), data) {
			t.Errorf("page %d differs after repair", p)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// flipHeaderPage rewrites the header of record 0 — page 0 — of one epoch's
// L1 segment to name page 4. The record hash covers only the payload, so
// only a check of the header against the manifest tells.
func flipHeaderPage(t *testing.T, fs ckpt.FS, epoch uint64) {
	t.Helper()
	if err := faultfs.FlipBit(fs, fmt.Sprintf("epoch-%08d.pages", epoch), 4*8+2); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreFallsBackOnWrongHeaderPage: after the drain, an L1 record's
// header names another page. Read from L1 the image would hold that page's
// content under the wrong id, so the tier restore must take the epoch from
// the lower tier, bit-identically, and scrub must find and repair it.
func TestRestoreFallsBackOnWrongHeaderPage(t *testing.T) {
	h, localFS, _ := scrubHierarchy(t)
	want := restoreSnapshot(t, h)
	flipHeaderPage(t, localFS, 3)
	im, steps, err := h.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		tier := "local"
		if s.Epoch == 3 {
			tier = "pfs"
		}
		if s.Tier != tier {
			t.Errorf("epoch %d restored from %q, want %s (%s)", s.Epoch, s.Tier, tier, s.Detail)
		}
	}
	if im.Pages.Len() != len(want) {
		t.Errorf("image holds %d pages, want %d", im.Pages.Len(), len(want))
	}
	for p, data := range want {
		if !bytes.Equal(im.PageOr(p), data) {
			t.Errorf("page %d differs from the undamaged image", p)
		}
	}
	rep, err := h.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Repaired != 1 || len(rep.Entries) != 1 || rep.Entries[0].Epoch != 3 {
		t.Fatalf("report = %+v, want epoch 3 damaged and repaired", rep)
	}
	if got := restoreSnapshot(t, h); !maps.EqualFunc(got, want, bytes.Equal) {
		t.Error("image differs after the repair")
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainRefusesWrongHeaderPage: an L1 record's header names another page
// before the drain reads the epoch back. The drain must not ship that page
// set: every tier copy ends failed, with its error recorded.
func TestDrainRefusesWrongHeaderPage(t *testing.T) {
	env := sim.NewRealEnv()
	localFS := &ckpt.MemFS{}
	repo := ckpt.NewRepository(localFS, pageSize)
	for p := 0; p < 2; p++ {
		if err := repo.WritePage(1, p, pageFill(p, 1), pageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	flipHeaderPage(t, localFS, 1)
	// A hierarchy opened over this L1 drains the epoch it finds there.
	h, err := New(Config{
		Env: env, PageSize: pageSize,
		Local: NewLocalTier(env, "local", localFS, pageSize, nil),
		Lower: []Tier{
			NewLocalTier(env, "pfs", &ckpt.MemFS{}, pageSize, nil),
			NewLocalTier(env, "archive", &ckpt.MemFS{}, pageSize, nil),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.WaitDrained()
	for _, tc := range h.Manifests()[0].Tiers[1:] {
		if tc.State != StateFailed || tc.Err == "" {
			t.Errorf("tier %s copy = %+v, want failed with its error", tc.Tier, tc)
		}
	}
	if h.Err() == nil {
		t.Error("Err() should surface the refused drain")
	}
	if err := h.Close(); err == nil {
		t.Error("Close should return the drain error")
	}
}

func TestScrubReportsTornTailWithoutRepair(t *testing.T) {
	h, localFS, _ := scrubHierarchy(t)
	// The newest manifest torn: indistinguishable from a crash mid-seal, so
	// scrub reports it but repairs nothing.
	if err := faultfs.TruncateFile(localFS, "epoch-00000003.json", 5); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 0 || rep.Repaired != 0 {
		t.Fatalf("report = %+v, want no corruption (torn tail only)", rep)
	}
	torn := false
	for _, e := range rep.Entries {
		if e.Status == ckpt.StatusTornTail && e.Epoch == 3 {
			torn = true
		}
	}
	if !torn {
		t.Fatalf("torn tail not reported: %+v", rep.Entries)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScrubUnrepairedWithoutRedundantTier(t *testing.T) {
	env := sim.NewRealEnv()
	localFS := &ckpt.MemFS{}
	h, err := New(Config{
		Env: env, PageSize: pageSize,
		Local: NewLocalTier(env, "local", localFS, pageSize, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(1); epoch <= 2; epoch++ {
		data := pageFill(0, int(epoch))
		if err := h.WritePage(epoch, 0, data, len(data)); err != nil {
			t.Fatal(err)
		}
		if err := h.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	if err := faultfs.FlipBit(localFS, "epoch-00000001.pages", 333); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Unrepaired != 1 || rep.Repaired != 0 {
		t.Fatalf("report = %+v, want 1 corrupt / 1 unrepaired", rep)
	}
	if len(rep.Entries) == 0 || !strings.Contains(rep.Entries[0].Action, "unrepaired") {
		t.Fatalf("entries = %+v, want an unrepaired action", rep.Entries)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// gatedTier fails every Store while down, then heals.
type gatedTier struct {
	Tier
	mu   sync.Mutex
	down bool
}

func (g *gatedTier) setDown(d bool) {
	g.mu.Lock()
	g.down = d
	g.mu.Unlock()
}

func (g *gatedTier) Store(ep *EpochData) error {
	g.mu.Lock()
	down := g.down
	g.mu.Unlock()
	if down {
		return errTierDown
	}
	return g.Tier.Store(ep)
}

var errTierDown = &tierDownError{}

type tierDownError struct{}

func (*tierDownError) Error() string { return "tier down" }

func TestScrubRequeuesFailedDrain(t *testing.T) {
	env := sim.NewRealEnv()
	localFS := &ckpt.MemFS{}
	gate := &gatedTier{Tier: NewLocalTier(env, "l2", &ckpt.MemFS{}, pageSize, nil)}
	gate.setDown(true)
	h, err := New(Config{
		Env: env, PageSize: pageSize,
		Local: NewLocalTier(env, "local", localFS, pageSize, nil),
		Lower: []Tier{gate},
		Drain: DrainPolicy{MaxAttempts: 2, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := pageFill(0, 1)
	if err := h.WritePage(1, 0, data, len(data)); err != nil {
		t.Fatal(err)
	}
	if err := h.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	h.WaitDrained()
	if st := h.Manifests()[0].Tiers[1].State; st != StateFailed {
		t.Fatalf("tier state %q before scrub, want failed", st)
	}
	// The tier recovers; scrub turns the gave-up copy back into drain work.
	gate.setDown(false)
	rep, err := h.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requeued != 1 {
		t.Fatalf("report = %+v, want 1 requeued copy", rep)
	}
	h.WaitDrained()
	if st := h.Manifests()[0].Tiers[1].State; st != StateStored {
		t.Fatalf("tier state %q after requeue, want stored", st)
	}
	if es, err := gate.Epochs(); err != nil || len(es) != 1 {
		t.Fatalf("recovered tier holds %v (%v), want epoch 1", es, err)
	}
	if err := h.Close(); err == nil {
		t.Error("Close should still surface the original drain error")
	}
}

func TestScrubRebuildsBaseByRefolding(t *testing.T) {
	env := sim.NewRealEnv()
	localFS, pfsFS := &ckpt.MemFS{}, &ckpt.MemFS{}
	h, err := New(Config{
		Env: env, PageSize: pageSize,
		Local: NewLocalTier(env, "local", localFS, pageSize, nil),
		Lower: []Tier{NewLocalTier(env, "pfs", pfsFS, pageSize, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping writes so the folded base actually merges versions.
	for epoch := uint64(1); epoch <= 6; epoch++ {
		for _, p := range []int{0, int(epoch % 3)} {
			data := pageFill(p, int(epoch))
			if err := h.WritePage(epoch, p, data, len(data)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	h.WaitDrained()
	res, err := compact.RunOnce(compactionCfg(h, compact.Policy{MaxDepth: 2, KeepRecent: 2}), false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.BaseTo != 4 {
		t.Fatalf("compaction result = %+v", res)
	}
	want := restoreSnapshot(t, h)

	if err := faultfs.FlipBit(localFS, "base-00000001-00000004.pages", 4321); err != nil {
		t.Fatal(err)
	}
	rep, err := h.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("report = %+v, want the base repaired", rep)
	}
	baseFixed := false
	for _, e := range rep.Entries {
		if e.IsBase && strings.Contains(e.Action, "re-folding") {
			baseFixed = true
		}
	}
	if !baseFixed {
		t.Fatalf("no base repair entry in %+v", rep.Entries)
	}
	health, err := ckpt.VerifyChain(localFS)
	if err != nil {
		t.Fatal(err)
	}
	for _, hs := range health {
		if hs.Status != ckpt.StatusOK {
			t.Errorf("post-repair entry %s status %q", hs.Manifest, hs.Status)
		}
	}
	im, _, err := h.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for p, data := range want {
		if !bytes.Equal(im.PageOr(p), data) {
			t.Errorf("page %d differs after base re-fold", p)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubConcurrentWithDrain races scrub passes against an active seal +
// drain pipeline under the real clock; run with -race it proves the scrub
// path takes the hierarchy lock where it must.
func TestScrubConcurrentWithDrain(t *testing.T) {
	env := sim.NewRealEnv()
	localFS := &ckpt.MemFS{}
	h, err := New(Config{
		Env: env, PageSize: pageSize,
		Local: NewLocalTier(env, "local", localFS, pageSize, nil),
		Lower: []Tier{NewLocalTier(env, "pfs", &ckpt.MemFS{}, pageSize, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := h.Scrub(); err != nil {
				t.Errorf("concurrent scrub: %v", err)
				return
			}
		}
	}()
	for epoch := uint64(1); epoch <= 20; epoch++ {
		for p := 0; p < 4; p++ {
			data := pageFill(p, int(epoch))
			if err := h.WritePage(epoch, p, data, len(data)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	h.WaitDrained()
	close(stop)
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	im, _, err := h.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if !bytes.Equal(im.PageOr(p), pageFill(p, 20)) {
			t.Errorf("page %d differs after concurrent scrubbing", p)
		}
	}
}
