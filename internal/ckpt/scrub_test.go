package ckpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/util"
)

// sealEpochs writes n sealed epochs (epoch e touches pages 0..e-1 with
// content derived from both) and returns the repository.
func sealEpochs(t *testing.T, fs FS, n int, pageSize int) *Repository {
	t.Helper()
	r := NewRepository(fs, pageSize)
	buf := make([]byte, pageSize)
	for e := 1; e <= n; e++ {
		for p := 0; p < e; p++ {
			for i := range buf {
				buf[i] = byte(p*31 + e*7 + i)
			}
			if err := r.WritePage(uint64(e), p, buf, pageSize); err != nil {
				t.Fatalf("WritePage(%d,%d): %v", e, p, err)
			}
		}
		if err := r.EndEpoch(uint64(e)); err != nil {
			t.Fatalf("EndEpoch(%d): %v", e, err)
		}
	}
	return r
}

// healthByStatus indexes a VerifyChain result by status.
func healthByStatus(hs []SegmentHealth) map[string][]SegmentHealth {
	out := map[string][]SegmentHealth{}
	for _, h := range hs {
		out[h.Status] = append(out[h.Status], h)
	}
	return out
}

func TestVerifyChainCleanChain(t *testing.T) {
	fs := &MemFS{}
	sealEpochs(t, fs, 3, 16)
	hs, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 3 {
		t.Fatalf("got %d entries, want 3", len(hs))
	}
	for _, h := range hs {
		if h.Status != StatusOK || h.Damaged {
			t.Errorf("%s: status %q damaged=%v, want ok", h.Manifest, h.Status, h.Damaged)
		}
		if h.PageCount != int(h.Epoch) {
			t.Errorf("%s: PageCount = %d, want %d", h.Manifest, h.PageCount, h.Epoch)
		}
		if h.Segment == "" {
			t.Errorf("%s: missing segment name", h.Manifest)
		}
	}
}

func TestVerifyChainTruncatedSegmentTail(t *testing.T) {
	fs := &MemFS{}
	sealEpochs(t, fs, 2, 16)
	name := segmentName(2)
	fs.Truncate(name, len(fs.files[name])-5)
	hs, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	by := healthByStatus(hs)
	if len(by[StatusSegmentCorrupt]) != 1 || by[StatusSegmentCorrupt][0].Epoch != 2 {
		t.Fatalf("want epoch 2 segment-corrupt, got %+v", hs)
	}
	if !by[StatusSegmentCorrupt][0].Damaged {
		t.Error("truncated tail must count as damage")
	}
	if len(by[StatusOK]) != 1 || by[StatusOK][0].Epoch != 1 {
		t.Errorf("epoch 1 should stay ok: %+v", hs)
	}
}

func TestVerifyChainBitFlippedRecord(t *testing.T) {
	fs := &MemFS{}
	sealEpochs(t, fs, 2, 16)
	fs.files[segmentName(1)][24] ^= 0x01 // payload byte under the record hash
	hs, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	by := healthByStatus(hs)
	if len(by[StatusSegmentCorrupt]) != 1 || by[StatusSegmentCorrupt][0].Epoch != 1 {
		t.Fatalf("want epoch 1 segment-corrupt, got %+v", hs)
	}
	if d := by[StatusSegmentCorrupt][0].Detail; d == "" {
		t.Error("corrupt entry should carry the verification error")
	}
}

func TestVerifyChainMissingSegment(t *testing.T) {
	fs := &MemFS{}
	sealEpochs(t, fs, 2, 16)
	if err := fs.Remove(segmentName(2)); err != nil {
		t.Fatal(err)
	}
	hs, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	by := healthByStatus(hs)
	if len(by[StatusSegmentMissing]) != 1 || by[StatusSegmentMissing][0].Epoch != 2 {
		t.Fatalf("want epoch 2 segment-missing, got %+v", hs)
	}
}

// TestVerifyChainTornTailManifest: a corrupt manifest NEWER than every
// intact entry is the in-flight write of a crash — the epoch never sealed,
// so it is reported torn-tail (not damage) and the strict loader still
// accepts the chain.
func TestVerifyChainTornTailManifest(t *testing.T) {
	fs := &MemFS{}
	sealEpochs(t, fs, 3, 16)
	fs.Truncate(manifestName(3), 9)
	hs, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	by := healthByStatus(hs)
	torn := by[StatusTornTail]
	if len(torn) != 1 || torn[0].Epoch != 3 || torn[0].Damaged {
		t.Fatalf("want epoch 3 torn-tail (not damaged), got %+v", hs)
	}
	if len(by[StatusOK]) != 2 {
		t.Errorf("epochs 1,2 should stay ok: %+v", hs)
	}
	if _, err := LoadChain(fs); err != nil {
		t.Errorf("strict loader must accept a torn tail: %v", err)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 2 {
		t.Errorf("restore reached epoch %d, want 2 (torn epoch ignored)", im.Epoch)
	}
}

// TestVerifyChainInteriorCorruptManifest: a corrupt manifest BELOW the
// chain's reach was provably sealed once — real damage that strict loading
// refuses and lenient loading classifies as manifest-corrupt.
func TestVerifyChainInteriorCorruptManifest(t *testing.T) {
	fs := &MemFS{}
	sealEpochs(t, fs, 3, 16)
	fs.files[manifestName(1)] = []byte(`{"epoch":`)
	hs, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	by := healthByStatus(hs)
	bad := by[StatusManifestCorrupt]
	if len(bad) != 1 || bad[0].Epoch != 1 || !bad[0].Damaged {
		t.Fatalf("want epoch 1 manifest-corrupt (damaged), got %+v", hs)
	}
	if _, err := LoadChain(fs); err == nil {
		t.Fatal("strict loader must reject interior manifest corruption")
	} else if !strings.Contains(err.Error(), "interior") || !strings.Contains(err.Error(), "scrub") {
		t.Errorf("error should name the damage and the repair path: %v", err)
	}
}

// TestVerifyChainCorruptBaseManifest: an unreadable base manifest is an
// uncommitted compaction artifact — the epochs it would cover are still
// live, so the chain remains intact and the issue is not damage.
func TestVerifyChainCorruptBaseManifest(t *testing.T) {
	fs := &MemFS{}
	sealEpochs(t, fs, 3, 16)
	pages := pageSetOf(map[int][]byte{0: bytes.Repeat([]byte{0xab}, 16)})
	if _, err := WriteBase(fs, 1, 2, 16, pages, 0); err != nil {
		t.Fatal(err)
	}
	fs.Truncate(baseManifestName(1, 2), 4)
	hs, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	by := healthByStatus(hs)
	torn := by[StatusTornTail]
	if len(torn) != 1 || !torn[0].IsBase || torn[0].Damaged {
		t.Fatalf("corrupt base manifest should be a torn (base) artifact, got %+v", hs)
	}
	if len(by[StatusOK]) != 3 {
		t.Errorf("all 3 epochs should stay live and ok: %+v", hs)
	}
	im, err := Restore(fs)
	if err != nil || im.Epoch != 3 {
		t.Errorf("restore = epoch %d, %v; want epoch 3 from the intact epochs", im.Epoch, err)
	}
}

// TestVerifyChainTornManifestV1 exercises the classification over a
// hand-built format-v1 repository (manifests without a format field).
func TestVerifyChainTornManifestV1(t *testing.T) {
	const pageSize = 16
	v1 := func(epoch uint64, pages []int) []byte {
		man, err := json.Marshal(map[string]any{
			"epoch":       epoch,
			"page_size":   pageSize,
			"page_count":  len(pages),
			"pages":       pages,
			"total_bytes": len(pages) * (20 + pageSize),
		})
		if err != nil {
			t.Fatal(err)
		}
		return man
	}
	build := func() *MemFS {
		fs := &MemFS{}
		putFile(t, fs, segmentName(1), append(
			buildRecord(0, 0, bytes.Repeat([]byte{0x11}, pageSize)),
			buildRecord(0, 1, bytes.Repeat([]byte{0x22}, pageSize))...))
		putFile(t, fs, manifestName(1), v1(1, []int{0, 1}))
		putFile(t, fs, segmentName(2), buildRecord(0, 0, bytes.Repeat([]byte{0x33}, pageSize)))
		putFile(t, fs, manifestName(2), v1(2, []int{0}))
		return fs
	}

	// Intact v1 chain verifies clean.
	fs := build()
	hs, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if h.Status != StatusOK {
			t.Fatalf("v1 chain entry %s = %q: %s", h.Manifest, h.Status, h.Detail)
		}
	}

	// Torn newest v1 manifest: crash artifact.
	fs = build()
	fs.Truncate(manifestName(2), 11)
	hs, _ = VerifyChain(fs)
	by := healthByStatus(hs)
	if len(by[StatusTornTail]) != 1 || by[StatusTornTail][0].Epoch != 2 {
		t.Fatalf("want torn-tail epoch 2, got %+v", hs)
	}

	// Torn interior v1 manifest: real damage.
	fs = build()
	fs.Truncate(manifestName(1), 11)
	hs, _ = VerifyChain(fs)
	by = healthByStatus(hs)
	if len(by[StatusManifestCorrupt]) != 1 || by[StatusManifestCorrupt][0].Epoch != 1 {
		t.Fatalf("want manifest-corrupt epoch 1, got %+v", hs)
	}
}

func TestQuarantineRemovesFromChainNamespace(t *testing.T) {
	fs := &MemFS{}
	sealEpochs(t, fs, 3, 16)
	orig := append([]byte(nil), fs.files[manifestName(1)]...)
	fs.files[manifestName(1)] = []byte("garbage")
	if err := Quarantine(fs, manifestName(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.files[manifestName(1)]; ok {
		t.Fatal("original file should be gone after quarantine")
	}
	q := fs.files[QuarantinePrefix+manifestName(1)]
	if string(q) != "garbage" {
		t.Errorf("quarantined bytes = %q, want the corrupt original preserved", q)
	}
	// The loaders no longer see the corrupt file at all.
	_, issues, err := LoadChainLenient(fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range issues {
		if is.Name == manifestName(1) {
			t.Errorf("quarantined manifest still reported: %+v", is)
		}
	}
	_ = orig
}

// TestRewriteEpochRepairsCorruptSegment is the ckpt-level repair loop:
// corrupt a sealed segment, quarantine it, rewrite the epoch from page
// content held elsewhere, and end with a clean, bit-identical chain.
func TestRewriteEpochRepairsCorruptSegment(t *testing.T) {
	const pageSize = 16
	fs := &MemFS{}
	sealEpochs(t, fs, 2, 16)
	want, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	// A redundant copy of epoch 1's physical pages, as a lower tier holds.
	oldMan, copy1, err := EpochPages(fs, 1)
	if err != nil {
		t.Fatal(err)
	}

	fs.files[segmentName(1)][24] ^= 0xff
	if err := Quarantine(fs, segmentName(1)); err != nil {
		t.Fatal(err)
	}
	man, err := RewriteEpoch(fs, 1, pageSize, &copy1, &oldMan)
	if err != nil {
		t.Fatal(err)
	}
	if man.Epoch != 1 || man.PageCount != copy1.Len() {
		t.Fatalf("rewritten manifest = %+v", man)
	}
	hs, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if h.Damaged {
			t.Errorf("%s still %q after rewrite: %s", h.Manifest, h.Status, h.Detail)
		}
	}
	got, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != want.Epoch || got.Pages.Len() != want.Pages.Len() {
		t.Fatalf("restored epoch %d / %d pages, want %d / %d", got.Epoch, got.Pages.Len(), want.Epoch, want.Pages.Len())
	}
	for p, data := range want.Pages.All() {
		if !bytes.Equal(pageAt(&got.Pages, p), data) {
			t.Errorf("page %d differs after repair", p)
		}
	}
}

// A repair must not carry a v2 manifest's refs into the v3 manifest it
// writes: their FNV-64a hashes would enter the dedup index as XXH64 ones.
// It drops them, so the v2 content's next rewrite is stored and the one
// after that dedups; a v3 manifest's refs survive a repair.
func TestRewriteEpochDropsV2Refs(t *testing.T) {
	const pageSize = 32
	content := func(p int) []byte { return stamped(p, 1, pageSize) }
	fs := &MemFS{}
	putV2Epoch(t, fs, 1, pageSize, map[int][]byte{0: content(0), 1: content(1)}, nil)
	v2 := putV2Epoch(t, fs, 2, pageSize, map[int][]byte{2: content(2)},
		[]PageRef{{Page: 0, Epoch: 1, Hash: util.Fnv64a(content(0))}})
	_, pages2, err := EpochPages(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	man, err := RewriteEpoch(fs, 2, pageSize, &pages2, &v2)
	if err != nil {
		t.Fatal(err)
	}
	if man.Format != FormatV3 || len(man.Refs) != 0 {
		t.Fatalf("repaired v2 epoch: format %d, refs %+v; want v3 without refs", man.Format, man.Refs)
	}

	r := NewRepository(fs, pageSize)
	r.mu.Lock()
	err = r.loadIndexLocked()
	index := maps.Clone(r.index)
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for p := range 3 {
		e, ok := index[p]
		switch {
		case !ok:
			t.Fatalf("page %d is not indexed", p)
		case e.hasHash && e.hash != contentHash(content(p)):
			t.Errorf("page %d indexed with hash %#x, not its content's XXH64 %#x", p, e.hash, contentHash(content(p)))
		case !e.hasHash && p == 2:
			t.Error("page 2, rewritten as v3, is indexed without a hash")
		}
	}

	write := func(epoch uint64) Manifest {
		t.Helper()
		if err := r.WritePage(epoch, 0, content(0), pageSize); err != nil {
			t.Fatal(err)
		}
		if err := r.EndEpoch(epoch); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(fs, epoch)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := write(3); m.PageCount != 1 || len(m.Refs) != 0 {
		t.Fatalf("the v2 page's unchanged rewrite: %d records, refs %+v; want it stored", m.PageCount, m.Refs)
	}
	v3 := write(4)
	if v3.PageCount != 0 || len(v3.Refs) != 1 || v3.Refs[0].Epoch != 3 {
		t.Fatalf("the next rewrite: %d records, refs %+v; want a ref to epoch 3", v3.PageCount, v3.Refs)
	}

	var none PageSet
	man, err = RewriteEpoch(fs, 4, pageSize, &none, &v3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(man.Refs, v3.Refs) {
		t.Fatalf("repaired v3 epoch refs %+v, want %+v", man.Refs, v3.Refs)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Pages.Equal(pageSetOf(map[int][]byte{0: content(0), 1: content(1), 2: content(2)})) {
		t.Fatal("the repaired mixed chain restores wrong")
	}
}

// FuzzVerifyChain throws arbitrary manifest and segment bytes at the
// scrubber. Whatever the files hold, VerifyChain must classify without
// panicking, every status must be a known constant, and a chain the strict
// loader accepts must never be reported with interior manifest corruption.
func FuzzVerifyChain(f *testing.F) {
	content := bytes.Repeat([]byte{0x5a}, 16)
	seg := func(format int) []byte { return buildRecord(format, 0, content) }
	man := func(epoch uint64, format int) []byte {
		b, _ := json.Marshal(Manifest{Epoch: epoch, PageSize: 16, PageCount: 1, Pages: []int{0},
			TotalBytes: int64(len(seg(format))), Format: format})
		return b
	}
	for _, fm := range [][2]int{{FormatV2, FormatV2}, {FormatV3, FormatV3}, {FormatV2, FormatV3}} {
		goodMan := func(epoch uint64) []byte { return man(epoch, fm[epoch-1]) }
		goodSeg, seg2 := seg(fm[0]), seg(fm[1])
		f.Add(goodMan(1), goodMan(2), goodSeg, seg2)
		f.Add(goodMan(1)[:9], goodMan(2), goodSeg, seg2)  // interior torn manifest
		f.Add(goodMan(1), goodMan(2)[:9], goodSeg, seg2)  // torn tail
		f.Add(goodMan(1), goodMan(2), goodSeg[:19], seg2) // truncated segment
		f.Add(goodMan(1), goodMan(2), []byte{}, seg2)     // empty segment file
		corrupt := append([]byte(nil), goodSeg...)
		corrupt[25] ^= 0xff
		f.Add(goodMan(1), goodMan(2), corrupt, seg2) // bit flip under the hash
	}
	f.Add(man(1, FormatV2), man(2, FormatV3), seg(FormatV3), seg(FormatV2)) // each segment under the other format
	f.Fuzz(func(t *testing.T, man1, man2, seg1, seg2 []byte) {
		fs := &MemFS{}
		putFile(t, fs, manifestName(1), man1)
		putFile(t, fs, manifestName(2), man2)
		putFile(t, fs, segmentName(1), seg1)
		putFile(t, fs, segmentName(2), seg2)
		hs, err := VerifyChain(fs)
		if err != nil {
			return // e.g. mixed page sizes: rejected, not classified
		}
		known := map[string]bool{StatusOK: true, StatusTornTail: true,
			StatusManifestCorrupt: true, StatusSegmentMissing: true, StatusSegmentCorrupt: true}
		interior := 0
		for _, h := range hs {
			if !known[h.Status] {
				t.Fatalf("unknown status %q", h.Status)
			}
			if h.Status != StatusOK && h.Status != StatusSegmentMissing && h.Detail == "" &&
				h.Status != StatusTornTail && h.Status != StatusManifestCorrupt {
				t.Fatalf("%s: non-ok status %q without detail", h.Manifest, h.Status)
			}
			if h.Status == StatusManifestCorrupt {
				interior++
			}
		}
		if _, err := LoadChain(fs); err == nil && interior > 0 {
			t.Fatalf("strict loader accepted a chain VerifyChain calls interior-corrupt: %+v", hs)
		}
		_, _ = Restore(fs) // must not panic either way
		_ = fmt.Sprintf("%v", hs)
	})
}
