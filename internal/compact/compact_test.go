package compact

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/compress"
	"repro/internal/sim"
)

func fillPage(b byte, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = b
	}
	return p
}

// winnerSegments counts the live chain entries that hold the newest copy of
// at least one page: the segments a restore opens.
func winnerSegments(t *testing.T, fs ckpt.FS) int {
	t.Helper()
	ch, err := ckpt.LoadChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	live := ch.Live()
	seen := map[int]bool{}
	n := 0
	for i := len(live) - 1; i >= 0; i-- {
		owns := false
		for _, p := range live[i].Pages {
			if !seen[p] {
				seen[p], owns = true, true
			}
		}
		if owns {
			n++
		}
	}
	return n
}

// writeChain seals epochs 1..n, each dirtying a rolling window of pages so
// later epochs shadow earlier content.
func writeChain(t *testing.T, fs ckpt.FS, pageSize, n int) {
	t.Helper()
	r := ckpt.NewRepository(fs, pageSize)
	for e := 1; e <= n; e++ {
		for p := e % 4; p < e%4+3; p++ {
			if err := r.WritePage(uint64(e), p, fillPage(byte(e*16+p), pageSize), pageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.EndEpoch(uint64(e)); err != nil {
			t.Fatal(err)
		}
	}
}

func imagesEqual(a, b *ckpt.Image) bool {
	return a.Epoch == b.Epoch && a.Pages.Equal(&b.Pages)
}

func TestRunOnceFoldsAndBoundsRestore(t *testing.T) {
	fs := &ckpt.MemFS{}
	const pageSize = 32
	writeChain(t, fs, pageSize, 12)
	before, err := ckpt.Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if want := winnerSegments(t, fs); before.SegmentsRead != want {
		t.Fatalf("uncompacted restore read %d segments, %d own a winner", before.SegmentsRead, want)
	}

	cfg := Config{FS: fs, PageSize: pageSize, Policy: Policy{MaxDepth: 4}}
	res, err := RunOnce(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.EpochsFolded != 10 || res.BaseFrom != 1 || res.BaseTo != 10 {
		t.Fatalf("result = %+v", res)
	}
	if res.LiveSegments > 4 {
		t.Fatalf("live segments = %d, want <= 4", res.LiveSegments)
	}

	after, err := ckpt.Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(before, after) {
		t.Fatal("compacted restore is not bit-identical")
	}
	if after.SegmentsRead > 4 {
		t.Fatalf("compacted restore read %d segments", after.SegmentsRead)
	}
	// The folded epoch files are gone.
	for _, name := range []string{"epoch-00000001.json", "epoch-00000001.pages"} {
		if _, err := fs.Open(name); err == nil {
			t.Fatalf("folded epoch 1's %s still present after GC", name)
		}
	}
	// The restart point survives compaction.
	if last, ok, err := ckpt.LastSealedEpoch(fs); err != nil || !ok || last != 12 {
		t.Fatalf("LastSealedEpoch = %d %v %v", last, ok, err)
	}
}

func TestRunOnceRespectsPolicyAndCanFold(t *testing.T) {
	fs := &ckpt.MemFS{}
	const pageSize = 16
	writeChain(t, fs, pageSize, 4)
	// Depth not exceeded: nothing happens.
	res, err := RunOnce(Config{FS: fs, PageSize: pageSize, Policy: Policy{MaxDepth: 8}}, false)
	if err != nil || res.Compacted {
		t.Fatalf("res = %+v err = %v", res, err)
	}
	// CanFold holds back everything past epoch 2: only [1,2] folds.
	res, err = RunOnce(Config{
		FS: fs, PageSize: pageSize,
		Policy:  Policy{MaxDepth: 2},
		CanFold: func(e uint64) bool { return e <= 2 },
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.BaseTo != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunOnceForceFoldsEverything(t *testing.T) {
	fs := &ckpt.MemFS{}
	const pageSize = 16
	writeChain(t, fs, pageSize, 7)
	before, _ := ckpt.Restore(fs)
	res, err := RunOnce(Config{FS: fs, PageSize: pageSize}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.BaseTo != 7 || res.LiveSegments != 1 {
		t.Fatalf("res = %+v", res)
	}
	after, err := ckpt.Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(before, after) {
		t.Fatal("forced compaction changed the image")
	}
	// Repeated compaction over an existing base keeps folding.
	r := ckpt.NewRepository(fs, pageSize)
	for e := 8; e <= 9; e++ {
		if err := r.WritePage(uint64(e), 0, fillPage(byte(e), pageSize), pageSize); err != nil {
			t.Fatal(err)
		}
		if err := r.EndEpoch(uint64(e)); err != nil {
			t.Fatal(err)
		}
	}
	res, err = RunOnce(Config{FS: fs, PageSize: pageSize}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.BaseFrom != 1 || res.BaseTo != 9 || res.LiveSegments != 1 {
		t.Fatalf("re-fold res = %+v", res)
	}
}

func TestCompactorBackgroundLoop(t *testing.T) {
	fs := &ckpt.MemFS{}
	const pageSize = 32
	c := NewCompactor(sim.NewRealEnv(), Config{FS: fs, PageSize: pageSize, Policy: Policy{MaxDepth: 3}})
	defer c.Close()
	r := ckpt.NewRepository(fs, pageSize)
	for e := 1; e <= 10; e++ {
		for p := 0; p < 4; p++ {
			if err := r.WritePage(uint64(e), p, fillPage(byte(e+p), pageSize), pageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.EndEpoch(uint64(e)); err != nil {
			t.Fatal(err)
		}
		c.Kick()
	}
	// A forced pass both flushes any backlog and proves CompactNow.
	res, err := c.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveSegments != 1 {
		t.Fatalf("live segments = %d", res.LiveSegments)
	}
	st := c.Stats()
	if st.Runs == 0 || st.Compactions == 0 || st.EpochsFolded == 0 {
		t.Fatalf("stats = %+v", st)
	}
	im, err := ckpt.Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 10 || im.SegmentsRead != 1 {
		t.Fatalf("image epoch %d, segments %d", im.Epoch, im.SegmentsRead)
	}
}

func TestCompactorUnderVirtualKernel(t *testing.T) {
	k := sim.NewKernel()
	fs := &ckpt.MemFS{}
	const pageSize = 16
	var imEpoch uint64
	k.Go("app", func() {
		c := NewCompactor(k, Config{FS: fs, PageSize: pageSize, Policy: Policy{MaxDepth: 2}})
		r := ckpt.NewRepository(fs, pageSize)
		for e := 1; e <= 6; e++ {
			if err := r.WritePage(uint64(e), 0, fillPage(byte(e), pageSize), pageSize); err != nil {
				panic(err)
			}
			if err := r.EndEpoch(uint64(e)); err != nil {
				panic(err)
			}
			c.Kick()
			k.Sleep(0) // let the compactor process run
		}
		if _, err := c.CompactNow(); err != nil {
			panic(err)
		}
		c.Close()
		im, err := ckpt.Restore(fs)
		if err != nil {
			panic(err)
		}
		imEpoch = im.Epoch
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if imEpoch != 6 {
		t.Fatalf("restored epoch = %d", imEpoch)
	}
}

func TestAmplificationTrigger(t *testing.T) {
	fs := &ckpt.MemFS{}
	const pageSize = 64
	r := ckpt.NewRepository(fs, pageSize)
	r.SetDedup(false) // every epoch rewrites the same page: pure amplification
	for e := 1; e <= 6; e++ {
		if err := r.WritePage(uint64(e), 0, fillPage(7, pageSize), pageSize); err != nil {
			t.Fatal(err)
		}
		if err := r.EndEpoch(uint64(e)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunOnce(Config{FS: fs, PageSize: pageSize, Policy: Policy{MaxAmplification: 2, KeepRecent: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted {
		t.Fatalf("amplified chain not compacted: %+v", res)
	}
	if res.BytesReclaimed == 0 {
		t.Fatal("no bytes reclaimed")
	}
}

// A repository written by a format-v2 writer — the checked-in v2 goldens —
// extends into a mixed v2→v3 chain: v3 epochs store the v2 pages they
// rewrite unchanged rather than dedup against FNV-64a hashes, verify and
// fold as one chain, and a forced pass folds them into one v3 base that
// restores the same image.
func TestRunOnceFoldsMixedV2V3Chain(t *testing.T) {
	const pageSize = 64
	for name, codec := range map[string]uint8{"none": 0, "flate": 2} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, file := range []string{"epoch-00000001.pages", "epoch-00000001.json"} {
				data, err := os.ReadFile(filepath.Join("..", "ckpt", "testdata", "format", name+"-"+file))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fs, err := ckpt.NewOSFS(dir)
			if err != nil {
				t.Fatal(err)
			}
			// The goldens' content: pages 5, 0 and 9, written in that order.
			want := map[int][]byte{}
			for i, p := range []int{5, 0, 9} {
				want[p] = make([]byte, pageSize)
				for j := range want[p] {
					want[p][j] = byte(p*17 + j/8 + i)
				}
			}
			r := ckpt.NewRepository(fs, pageSize)
			r.SetCodec(compress.Codec(codec))
			seal := func(epoch uint64, pages ...int) ckpt.Manifest {
				t.Helper()
				for _, p := range pages {
					if err := r.WritePage(epoch, p, want[p], pageSize); err != nil {
						t.Fatal(err)
					}
				}
				if err := r.EndEpoch(epoch); err != nil {
					t.Fatal(err)
				}
				m, err := ckpt.ReadManifest(fs, epoch)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			want[3] = fillPage(0x33, pageSize)
			if m := seal(2, 5, 0, 3); m.Format != ckpt.FormatV3 || m.PageCount != 3 || len(m.Refs) != 0 {
				t.Fatalf("epoch 2 over the v2 epoch: format %d, %d records, refs %+v; want v3, 3 and none", m.Format, m.PageCount, m.Refs)
			}
			want[9] = fillPage(0x99, pageSize)
			if m := seal(3, 5, 9); m.PageCount != 1 || len(m.Refs) != 1 || m.Refs[0].Epoch != 2 {
				t.Fatalf("epoch 3: %d records, refs %+v; want page 5 deduped against epoch 2", m.PageCount, m.Refs)
			}

			wantSet := ckpt.NewPageSet(len(want))
			for _, p := range []int{0, 3, 5, 9} {
				wantSet.Append(p, want[p])
			}
			checkChain := func(when string) {
				t.Helper()
				hs, err := ckpt.VerifyChain(fs)
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range hs {
					if h.Damaged {
						t.Fatalf("%s: %s is %s: %s", when, h.Manifest, h.Status, h.Detail)
					}
				}
				ch, err := ckpt.LoadChain(fs)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := ckpt.FoldChain(fs, ch.Live(), 2)
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if !got.Equal(&wantSet) {
					t.Fatalf("%s: the chain folds to another image", when)
				}
			}
			checkChain("mixed chain")

			res, err := RunOnce(Config{FS: fs, PageSize: pageSize, Codec: codec}, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Compacted || res.BaseFrom != 1 || res.BaseTo != 3 || res.LiveSegments != 1 {
				t.Fatalf("res = %+v", res)
			}
			ch, err := ckpt.LoadChain(fs)
			if err != nil {
				t.Fatal(err)
			}
			if ch.Base == nil || ch.Base.Format != ckpt.FormatV3 || len(ch.Epochs) != 0 {
				t.Fatalf("after the pass: base %+v, %d live epochs; want one v3 base", ch.Base, len(ch.Epochs))
			}
			checkChain("compacted")
			im, err := ckpt.Restore(fs)
			if err != nil {
				t.Fatal(err)
			}
			if im.Epoch != 3 || !im.Pages.Equal(&wantSet) {
				t.Fatalf("restored epoch %d differs from the mixed chain's image", im.Epoch)
			}
		})
	}
}
