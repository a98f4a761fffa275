package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/compress"
)

// Drop removes a file without error checking, simulating partial loss.
func (m *MemFS) Drop(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
}

// Truncate cuts a file to n bytes, simulating a torn write after a crash
// on a medium without atomic publish.
func (m *MemFS) Truncate(name string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if data, ok := m.files[name]; ok && n < len(data) {
		m.files[name] = data[:n]
	}
}

// EpochPages reads one sealed epoch back in full: FoldChain over that one
// entry, so every record is checked as restore checks it and a page written
// twice keeps its later record. It returns the manifest and the epoch's
// physical records; deduplicated pages carry no data.
func EpochPages(fs FS, epoch uint64) (Manifest, PageSet, error) {
	m, err := ReadManifest(fs, epoch)
	if err != nil {
		return Manifest{}, PageSet{}, err
	}
	pages, _, err := FoldChain(fs, []Manifest{m}, 1)
	if err != nil {
		return Manifest{}, PageSet{}, err
	}
	return m, pages, nil
}

// sealEpoch writes pages (id -> fill byte) into one epoch and seals it.
func sealEpoch(t *testing.T, r *Repository, epoch uint64, size int, fills map[int]byte) {
	t.Helper()
	for id, b := range fills {
		if err := r.WritePage(epoch, id, page(b, size), size); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.EndEpoch(epoch); err != nil {
		t.Fatal(err)
	}
}

func TestDedupElidesIdenticalRewrites(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 32)
	sealEpoch(t, r, 1, 32, map[int]byte{0: 0xaa, 1: 0xbb})
	// Epoch 2 rewrites page 0 with identical content and page 1 with new
	// content.
	sealEpoch(t, r, 2, 32, map[int]byte{0: 0xaa, 1: 0xcc})

	m2, err := ReadManifest(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.PageCount != 1 || len(m2.Refs) != 1 {
		t.Fatalf("manifest = %+v", m2)
	}
	if m2.Refs[0].Page != 0 || m2.Refs[0].Epoch != 1 {
		t.Fatalf("ref = %+v", m2.Refs[0])
	}
	if m2.Format != FormatV3 || len(m2.Hashes) != len(m2.Pages) {
		t.Fatalf("v3 fields missing: %+v", m2)
	}
	st := r.DedupStats()
	if st.PagesDeduped != 1 || st.BytesDeduped != 32 || st.PagesStored != 3 {
		t.Fatalf("stats = %+v", st)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pageAt(&im.Pages, 0), page(0xaa, 32)) || !bytes.Equal(pageAt(&im.Pages, 1), page(0xcc, 32)) {
		t.Fatal("restored content wrong after dedup")
	}
}

func TestDedupIndexSurvivesRestart(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 16)
	sealEpoch(t, r, 1, 16, map[int]byte{3: 0x77})
	// A fresh repository over the same FS (a restarted process) rebuilds
	// the index from the chain's manifests and keeps deduplicating.
	r2 := NewRepository(fs, 16)
	sealEpoch(t, r2, 2, 16, map[int]byte{3: 0x77})
	m2, err := ReadManifest(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.PageCount != 0 || len(m2.Refs) != 1 || m2.Refs[0].Epoch != 1 {
		t.Fatalf("restarted repo did not dedup: %+v", m2)
	}
	// The refs-only epoch has no segment file.
	if _, err := fs.Open(segmentName(2)); err == nil {
		t.Fatal("refs-only epoch wrote a segment")
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 2 || !bytes.Equal(pageAt(&im.Pages, 3), page(0x77, 16)) {
		t.Fatalf("image = %+v", im)
	}
}

func TestDedupIgnoresAbortedEpochs(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 16)
	sealEpoch(t, r, 1, 16, map[int]byte{0: 0x11})
	// Epoch 2 writes new content but crashes before sealing: the dedup
	// index must not absorb it, or epoch 3's identical rewrite would be
	// elided against unsealed (invisible) content.
	if err := r.WritePage(2, 0, page(0x22, 16), 16); err != nil {
		t.Fatal(err)
	}
	r.Abort()
	sealEpoch(t, r, 3, 16, map[int]byte{0: 0x22})
	m3, err := ReadManifest(fs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m3.PageCount != 1 || len(m3.Refs) != 0 {
		t.Fatalf("epoch 3 deduped against aborted content: %+v", m3)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pageAt(&im.Pages, 0), page(0x22, 16)) {
		t.Fatal("restored content wrong")
	}
}

func TestDedupDisabled(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 16)
	r.SetDedup(false)
	sealEpoch(t, r, 1, 16, map[int]byte{0: 0x55})
	sealEpoch(t, r, 2, 16, map[int]byte{0: 0x55})
	m2, err := ReadManifest(fs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.PageCount != 1 || len(m2.Refs) != 0 {
		t.Fatalf("dedup ran while disabled: %+v", m2)
	}
}

func TestMixedPageSizeChainRejected(t *testing.T) {
	fs := &MemFS{}
	sealEpoch(t, NewRepository(fs, 16), 1, 16, map[int]byte{0: 1})
	// A divergent epoch written by a misconfigured process (hand-crafted:
	// the repository itself now refuses to extend a chain at another
	// granularity).
	divergent := Manifest{Epoch: 2, PageSize: 32, Format: FormatV2}
	if err := writeManifestFile(fs, manifestName(2), &divergent); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"Restore":     func() error { _, err := Restore(fs); return err },
		"LoadChain":   func() error { _, err := LoadChain(fs); return err },
		"VerifyChain": func() error { _, err := VerifyChain(fs); return err },
	} {
		err := call()
		if err == nil {
			t.Fatalf("%s accepted a mixed-granularity chain", name)
		}
		if !bytes.Contains([]byte(err.Error()), []byte("epoch 2")) {
			t.Errorf("%s error does not name the diverging epoch: %v", name, err)
		}
	}
	// A repository reopened with a diverging page size refuses to extend
	// the chain (the silent path that used to create mixed chains).
	seedFS := &MemFS{}
	sealEpoch(t, NewRepository(seedFS, 16), 1, 16, map[int]byte{0: 1})
	r := NewRepository(seedFS, 64)
	if err := r.WritePage(2, 0, page(9, 64), 64); err == nil {
		t.Fatal("repository extended a chain written at another page size")
	}
	// The guard holds with dedup disabled too (the index load is skipped,
	// a single-manifest check runs instead).
	r = NewRepository(seedFS, 64)
	r.SetDedup(false)
	if err := r.WritePage(2, 0, page(9, 64), 64); err == nil {
		t.Fatal("dedup-off repository extended a chain written at another page size")
	}
}

func TestBaseRoundTripAndChainAssembly(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 16)
	sealEpoch(t, r, 1, 16, map[int]byte{0: 1, 1: 2})
	sealEpoch(t, r, 2, 16, map[int]byte{1: 3})
	sealEpoch(t, r, 3, 16, map[int]byte{2: 4})
	man, err := WriteBase(fs, 1, 2, 16, pageSetOf(map[int][]byte{0: page(1, 16), 1: page(3, 16)}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if man.Base == nil || man.Base.From != 1 || man.Base.To != 2 || man.PageCount != 2 {
		t.Fatalf("base manifest = %+v", man)
	}
	pages, _, err := FoldChain(fs, []Manifest{man}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pageAt(&pages, 1), page(3, 16)) {
		t.Fatal("base content wrong")
	}
	ch, err := LoadChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Base == nil || ch.Base.Base.To != 2 {
		t.Fatalf("chain base = %+v", ch.Base)
	}
	if len(ch.Epochs) != 1 || ch.Epochs[0].Epoch != 3 {
		t.Fatalf("live epochs = %+v", ch.Epochs)
	}
	if len(ch.Superseded) != 2 {
		t.Fatalf("superseded = %+v", ch.Superseded)
	}
	rows, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	var reclaimable int64
	for _, h := range rows {
		if h.Superseded {
			reclaimable += h.TotalBytes
		}
	}
	if reclaimable == 0 {
		t.Fatal("superseded bytes not counted")
	}
	// Restore prefers the base and skips superseded epochs.
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 3 || im.SegmentsRead != winnerSegments(ch.Live()) {
		t.Fatalf("image = epoch %d, segments %d", im.Epoch, im.SegmentsRead)
	}
	if !bytes.Equal(pageAt(&im.Pages, 1), page(3, 16)) || !bytes.Equal(pageAt(&im.Pages, 2), page(4, 16)) {
		t.Fatal("restored content wrong")
	}
	// GC reclaims the superseded files; restore is unchanged.
	reclaimed, removed := GCSuperseded(fs, ch)
	if reclaimed == 0 || len(removed) == 0 {
		t.Fatalf("GC removed nothing: %d %v", reclaimed, removed)
	}
	im2, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im2.Epoch != 3 || !bytes.Equal(pageAt(&im2.Pages, 1), page(3, 16)) {
		t.Fatal("restore changed after GC")
	}
}

// TestCrashArtifactsIgnoredOnOpen covers the mid-compaction kill matrix: a
// base segment without its manifest (killed before commit), a torn base
// manifest (killed during commit), and superseded epochs still on disk
// (killed before GC) must all leave a chain that restores bit-identically.
func TestCrashArtifactsIgnoredOnOpen(t *testing.T) {
	build := func() (*MemFS, *Image) {
		fs := &MemFS{}
		r := NewRepository(fs, 16)
		sealEpoch(t, r, 1, 16, map[int]byte{0: 1, 1: 2})
		sealEpoch(t, r, 2, 16, map[int]byte{1: 3})
		sealEpoch(t, r, 3, 16, map[int]byte{0: 4})
		im, err := Restore(fs)
		if err != nil {
			t.Fatal(err)
		}
		return fs, im
	}
	same := func(t *testing.T, fs *MemFS, want *Image) {
		t.Helper()
		im, err := Restore(fs)
		if err != nil {
			t.Fatal(err)
		}
		if im.Epoch != want.Epoch || im.Pages.Len() != want.Pages.Len() {
			t.Fatalf("image = %+v, want %+v", im, want)
		}
		for p, d := range want.Pages.All() {
			if !bytes.Equal(pageAt(&im.Pages, p), d) {
				t.Fatalf("page %d differs", p)
			}
		}
	}

	t.Run("unsealed base segment", func(t *testing.T) {
		fs, want := build()
		// Killed after writing the consolidated segment, before the
		// manifest: the base is invisible.
		f, err := fs.Create(baseSegmentName(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("partial garbage"))
		f.Close()
		same(t, fs, want)
	})

	t.Run("torn base manifest", func(t *testing.T) {
		fs, want := build()
		if _, err := WriteBase(fs, 1, 2, 16, pageSetOf(map[int][]byte{0: page(1, 16), 1: page(3, 16)}), 0); err != nil {
			t.Fatal(err)
		}
		// Killed mid-manifest-write: the JSON is truncated. The base must
		// be skipped and the (still present) epochs used instead.
		fs.Truncate(baseManifestName(1, 2), 10)
		same(t, fs, want)
	})

	t.Run("killed before GC", func(t *testing.T) {
		fs, want := build()
		if _, err := WriteBase(fs, 1, 2, 16, pageSetOf(map[int][]byte{0: page(1, 16), 1: page(3, 16)}), 0); err != nil {
			t.Fatal(err)
		}
		// Base committed, folded epochs not collected yet: restore uses
		// the base, ignores the superseded epochs.
		same(t, fs, want)
		// And a later pass can finish the GC.
		ch, err := LoadChain(fs)
		if err != nil {
			t.Fatal(err)
		}
		GCSuperseded(fs, ch)
		same(t, fs, want)
	})

	t.Run("stale base replaced", func(t *testing.T) {
		fs, want := build()
		if _, err := WriteBase(fs, 1, 2, 16, pageSetOf(map[int][]byte{0: page(1, 16), 1: page(3, 16)}), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteBase(fs, 1, 3, 16, pageSetOf(map[int][]byte{0: page(4, 16), 1: page(3, 16)}), 0); err != nil {
			t.Fatal(err)
		}
		ch, err := LoadChain(fs)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Base == nil || ch.Base.Base.To != 3 || len(ch.StaleBases) != 1 {
			t.Fatalf("chain = base %+v stale %d", ch.Base, len(ch.StaleBases))
		}
		same(t, fs, want)
	})
}

func TestEpochPagesErrorPaths(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 32)
	sealEpoch(t, r, 1, 32, map[int]byte{0: 0x42, 1: 0x43})

	// Missing segment: the manifest promises records the FS lost.
	fs.Drop(segmentName(1))
	if _, _, err := EpochPages(fs, 1); err == nil {
		t.Fatal("EpochPages read a dropped segment")
	}

	// Unsealed epoch.
	if _, _, err := EpochPages(fs, 9); err == nil {
		t.Fatal("EpochPages read an unsealed epoch")
	}
}

func TestLastSealedEpochErrorPaths(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 32)
	sealEpoch(t, r, 1, 32, map[int]byte{0: 0x42})
	// Truncated *newest* manifest: a torn tail from a mid-crash write —
	// the epoch never sealed, so the chain is simply empty again.
	fs.Truncate(manifestName(1), 5)
	if _, ok, err := LastSealedEpoch(fs); err != nil || ok {
		t.Fatalf("torn tail: ok=%v err=%v, want unsealed and no error", ok, err)
	}
	// Truncated *interior* manifest: a newer intact epoch proves epoch 1
	// was once sealed, so its corruption is real damage and must surface
	// (a restarted runtime must not silently renumber over lost state).
	sealEpoch(t, r, 2, 32, map[int]byte{0: 0x43})
	if _, _, err := LastSealedEpoch(fs); err == nil {
		t.Fatal("LastSealedEpoch ignored an interior corrupt manifest")
	}
	// Empty repository: no error, ok=false.
	if _, ok, err := LastSealedEpoch(&MemFS{}); err != nil || ok {
		t.Fatalf("empty repo: ok=%v err=%v", ok, err)
	}
}

// TestInspectErrorPaths: what the inspection tool's check (VerifyChain)
// reports for a lost segment, a torn or interior-corrupt manifest, and a
// record only the decoder can find wrong.
func TestInspectErrorPaths(t *testing.T) {
	t.Run("missing segment", func(t *testing.T) {
		fs := &MemFS{}
		r := NewRepository(fs, 32)
		sealEpoch(t, r, 1, 32, map[int]byte{0: 0x42})
		fs.Drop(segmentName(1))
		hs, err := VerifyChain(fs)
		if err != nil || len(hs) != 1 || hs[0].Status != StatusSegmentMissing || !hs[0].Damaged {
			t.Fatalf("health = %+v err = %v", hs, err)
		}
	})
	t.Run("truncated manifest", func(t *testing.T) {
		fs := &MemFS{}
		r := NewRepository(fs, 32)
		sealEpoch(t, r, 1, 32, map[int]byte{0: 0x42})
		// Torn tail (no newer intact epoch): the epoch never sealed, so it
		// is reported but is not damage.
		fs.Truncate(manifestName(1), 7)
		hs, err := VerifyChain(fs)
		if err != nil || len(hs) != 1 || hs[0].Status != StatusTornTail || hs[0].Damaged {
			t.Fatalf("torn tail: health = %+v err = %v, want one undamaged torn tail", hs, err)
		}
		// Interior corruption (epoch 2 proves epoch 1 was sealed): damage.
		sealEpoch(t, r, 2, 32, map[int]byte{0: 0x43})
		hs, err = VerifyChain(fs)
		if err != nil || len(hs) != 2 || hs[0].Status != StatusManifestCorrupt || !hs[0].Damaged {
			t.Fatalf("interior: health = %+v err = %v, want epoch 1 manifest-corrupt", hs, err)
		}
	})
	t.Run("corrupt codec byte", func(t *testing.T) {
		fs := &MemFS{}
		r := NewRepository(fs, 32)
		r.SetCodec(compress.Flate)
		sealEpoch(t, r, 1, 32, map[int]byte{0: 0x42})
		// Overwrite the payload's codec byte with an unknown codec and
		// re-sign the record, so the corruption is only detectable at
		// decode time.
		fs.mu.Lock()
		seg := fs.files[segmentName(1)]
		payload := seg[20:]
		payload[0] = 0xEE
		h := fnv.New64a()
		h.Write(payload)
		binary.LittleEndian.PutUint64(seg[12:20], h.Sum64())
		fs.mu.Unlock()
		hs, err := VerifyChain(fs)
		if err != nil || len(hs) != 1 || hs[0].Status != StatusSegmentCorrupt {
			t.Fatalf("health = %+v err = %v", hs, err)
		}
		if _, err := Restore(fs); err == nil {
			t.Fatal("Restore decoded an unknown codec byte")
		}
	})
}

// ghostFS lists one name more than it holds: a manifest another process
// collected between List and Open.
type ghostFS struct {
	FS
	ghost string
}

func (g ghostFS) List() ([]string, error) {
	names, err := g.FS.List()
	names = append(names, g.ghost)
	sort.Strings(names)
	return names, err
}

// listSealed returns the manifests LoadChain counts as sealed, sorted by
// epoch: the superseded epochs still on disk, then the live ones.
func listSealed(fs FS) ([]Manifest, error) {
	ch, err := LoadChain(fs)
	if err != nil {
		return nil, err
	}
	return append(ch.Superseded, ch.Epochs...), nil
}

// TestListSealedClassification pins which epoch manifests LoadChain counts
// as sealed and which damage it refuses.
func TestListSealedClassification(t *testing.T) {
	build := func(compacted bool) *MemFS {
		fs := &MemFS{}
		r := NewRepository(fs, 16)
		sealEpoch(t, r, 1, 16, map[int]byte{0: 1, 1: 2})
		sealEpoch(t, r, 2, 16, map[int]byte{1: 3})
		sealEpoch(t, r, 3, 16, map[int]byte{0: 4})
		if compacted { // base over 1..2 committed, epochs 1 and 2 not collected yet
			if _, err := WriteBase(fs, 1, 2, 16, pageSetOf(map[int][]byte{0: page(1, 16), 1: page(3, 16)}), 0); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}
	for _, tc := range []struct {
		name      string
		compacted bool
		damage    func(fs *MemFS) FS
		want      []uint64
		wantErr   string
	}{
		{name: "intact", want: []uint64{1, 2, 3}},
		{name: "superseded still on disk", compacted: true, want: []uint64{1, 2, 3}},
		{
			name:   "torn tail",
			damage: func(fs *MemFS) FS { fs.Truncate(manifestName(3), 10); return fs },
			want:   []uint64{1, 2},
		},
		{
			name:    "corrupt interior",
			damage:  func(fs *MemFS) FS { fs.Truncate(manifestName(2), 10); return fs },
			wantErr: "interior epoch 2",
		},
		{
			// Garbage awaiting collection: nothing reads it, so it is
			// left out rather than failing the enumeration.
			name:      "corrupt superseded",
			compacted: true,
			damage:    func(fs *MemFS) FS { fs.Truncate(manifestName(1), 10); return fs },
			want:      []uint64{2, 3},
		},
		{
			name:      "manifest vanishes between list and open",
			compacted: true,
			damage:    func(fs *MemFS) FS { fs.Drop(manifestName(1)); return ghostFS{fs, manifestName(1)} },
			want:      []uint64{2, 3},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fs FS = build(tc.compacted)
			if tc.damage != nil {
				fs = tc.damage(fs.(*MemFS))
			}
			ms, err := listSealed(fs)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []uint64
			for _, m := range ms {
				got = append(got, m.Epoch)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("listed epochs %v, want %v", got, tc.want)
			}
		})
	}
}
