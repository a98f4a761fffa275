package multilevel

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/compact"
	"repro/internal/sim"
)

// compactionCfg wires a compaction pass to a hierarchy the way the runtime
// does: only settled epochs fold, and superseding is reflected in the tier
// manifests.
func compactionCfg(h *Hierarchy, policy compact.Policy) compact.Config {
	return compact.Config{
		FS:          h.Local().FS(),
		PageSize:    h.PageSize(),
		Policy:      policy,
		CanFold:     h.Settled,
		OnCompacted: func(base ckpt.Manifest, _ []uint64) { h.MarkSuperseded(base) },
	}
}

func TestCompactionSupersedesDrainedEpochs(t *testing.T) {
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
	for epoch := uint64(1); epoch <= 6; epoch++ {
		if err := h.WritePage(epoch, int(epoch%3), pageFill(int(epoch%3), int(epoch)), pageSize); err != nil {
			t.Fatal(err)
		}
		if err := h.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	h.WaitDrained()
	before, _, err := h.Restore()
	if err != nil {
		t.Fatal(err)
	}

	res, err := compact.RunOnce(compactionCfg(h, compact.Policy{MaxDepth: 2, KeepRecent: 2}), false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.BaseTo != 4 {
		t.Fatalf("result = %+v", res)
	}

	// Tier manifests reflect the superseding.
	superseded := 0
	for _, m := range h.Manifests() {
		if m.Base != nil {
			continue
		}
		if m.Epoch <= 4 {
			if m.Tiers[0].State != StateSuperseded {
				t.Errorf("epoch %d L1 state = %s, want superseded", m.Epoch, m.Tiers[0].State)
			}
			superseded++
		} else if m.Tiers[0].State == StateSuperseded {
			t.Errorf("live epoch %d marked superseded", m.Epoch)
		}
	}
	if superseded != 4 {
		t.Fatalf("superseded manifests = %d, want 4", superseded)
	}

	// Restore with all tiers healthy folds the base first.
	im, steps, err := h.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 || !strings.Contains(steps[0].Detail, "base [1,4]") {
		t.Fatalf("steps = %+v", steps)
	}
	if im.SegmentsRead != 3 { // base + epochs 5, 6
		t.Errorf("segments read = %d, want 3", im.SegmentsRead)
	}
	if im.Epoch != before.Epoch || im.Pages.Len() != before.Pages.Len() {
		t.Fatalf("image = %+v, want %+v", im, before)
	}
	for p, d := range before.Pages.All() {
		if got, _ := im.Pages.Get(p); !bytes.Equal(got, d) {
			t.Fatalf("page %d differs after compaction", p)
		}
	}

	// Local tier lost: the per-epoch copies on the lower tier still
	// reproduce the full image (they were drained before folding).
	if err := h.Local().Wipe(); err != nil {
		t.Fatal(err)
	}
	im2, steps2, err := h.Restore()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps2 {
		if s.Tier != "pfs" {
			t.Errorf("epoch %d restored from %q, want pfs", s.Epoch, s.Tier)
		}
	}
	for p, d := range before.Pages.All() {
		if got, _ := im2.Pages.Get(p); !bytes.Equal(got, d) {
			t.Fatalf("page %d differs after L1 loss", p)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartDrainsBaseToFreshLowerTier restarts a fully compacted local
// tier over a fresh (empty, non-durable) lower tier: the recovery scan
// must promote the base itself, or content existing only inside the base
// would be unrecoverable after a later L1 loss.
func TestRestartDrainsBaseToFreshLowerTier(t *testing.T) {
	env := sim.NewRealEnv()
	localFS := &ckpt.MemFS{}

	// First life: 4 epochs, drained, then fully compacted and collected.
	h1, err := New(Config{
		Env: env, PageSize: pageSize,
		Local: NewLocalTier(env, "local", localFS, pageSize, nil),
		Lower: []Tier{NewLocalTier(env, "pfs", &ckpt.MemFS{}, pageSize, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(1); epoch <= 4; epoch++ {
		if err := h1.WritePage(epoch, int(epoch), pageFill(int(epoch), 7), pageSize); err != nil {
			t.Fatal(err)
		}
		if err := h1.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	h1.WaitDrained()
	if _, err := compact.RunOnce(compactionCfg(h1, compact.Policy{}), true); err != nil {
		t.Fatal(err)
	}
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same local FS (holding only the base), brand-new lower
	// tier with no history.
	freshPFS := NewLocalTier(env, "pfs", &ckpt.MemFS{}, pageSize, nil)
	h2, err := New(Config{
		Env: env, PageSize: pageSize,
		Local: NewLocalTier(env, "local", localFS, pageSize, nil),
		Lower: []Tier{freshPFS},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last, ok := h2.LastEpoch(); !ok || last != 4 {
		t.Fatalf("LastEpoch = %d,%v, want 4,true", last, ok)
	}
	// The restarted process seals one more epoch.
	if err := h2.WritePage(5, 9, pageFill(9, 5), pageSize); err != nil {
		t.Fatal(err)
	}
	if err := h2.EndEpoch(5); err != nil {
		t.Fatal(err)
	}
	h2.WaitDrained()
	if es, err := freshPFS.Epochs(); err != nil || len(es) != 2 {
		t.Fatalf("fresh pfs holds %v (%v), want the promoted base (as epoch 4) and epoch 5", es, err)
	}

	// L1 dies: the promoted base on the lower tier must reproduce every
	// page of the compacted history.
	if err := h2.Local().Wipe(); err != nil {
		t.Fatal(err)
	}
	im, _, err := h2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 5 {
		t.Fatalf("restart point = %d, want 5", im.Epoch)
	}
	for epoch := 1; epoch <= 4; epoch++ {
		if !bytes.Equal(im.PageOr(epoch), pageFill(epoch, 7)) {
			t.Errorf("page %d (folded into the base) lost after L1 wipe", epoch)
		}
	}
	if !bytes.Equal(im.PageOr(9), pageFill(9, 5)) {
		t.Error("post-restart epoch lost")
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartSkipsSupersededEpochs restarts over a local tier where a
// compaction committed its base but was killed before garbage collection:
// the leftover superseded epochs must not be re-drained, and their tier
// manifests must say why.
func TestRestartSkipsSupersededEpochs(t *testing.T) {
	env := sim.NewRealEnv()
	localFS := &ckpt.MemFS{}
	repo := ckpt.NewRepository(localFS, pageSize)
	for epoch := uint64(1); epoch <= 3; epoch++ {
		if err := repo.WritePage(epoch, int(epoch), pageFill(int(epoch), int(epoch)), pageSize); err != nil {
			t.Fatal(err)
		}
		if err := repo.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
	}
	// A committed base covering [1,2]; the folded epochs escape GC.
	var basePages ckpt.PageSet
	basePages.Append(1, pageFill(1, 1))
	basePages.Append(2, pageFill(2, 2))
	if _, err := ckpt.WriteBase(localFS, 1, 2, pageSize, &basePages, 0); err != nil {
		t.Fatal(err)
	}

	pfs := &countingTier{Tier: NewLocalTier(env, "pfs", &ckpt.MemFS{}, pageSize, nil)}
	h, err := New(Config{
		Env: env, PageSize: pageSize,
		Local: NewLocalTier(env, "local", localFS, pageSize, nil),
		Lower: []Tier{pfs},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.WaitDrained()
	// Only the base (as epoch 2) and live epoch 3 are shipped — not the
	// superseded epochs 1 and 2.
	if pfs.stores != 2 {
		t.Errorf("lower tier stores = %d, want 2 (base + live epoch)", pfs.stores)
	}
	for _, m := range h.Manifests() {
		if m.Base == nil && m.Epoch <= 2 {
			for _, tc := range m.Tiers {
				if tc.State != StateSuperseded {
					t.Errorf("superseded epoch %d tier %s state = %s", m.Epoch, tc.Tier, tc.State)
				}
			}
		}
	}

	if err := h.Local().Wipe(); err != nil {
		t.Fatal(err)
	}
	im, _, err := h.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 3 {
		t.Fatalf("restart point = %d, want 3", im.Epoch)
	}
	for p := 1; p <= 3; p++ {
		if !bytes.Equal(im.PageOr(p), pageFill(p, p)) {
			t.Errorf("page %d lost", p)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}
