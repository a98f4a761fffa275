package ckpt

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/util"
)

func page(b byte, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestRepositoryRoundTrip(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 64)
	if err := r.WritePage(1, 0, page(0xaa, 64), 64); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePage(1, 3, page(0xbb, 64), 64); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 1 || im.Pages.Len() != 2 {
		t.Fatalf("image = %+v", im)
	}
	if !bytes.Equal(pageAt(&im.Pages, 0), page(0xaa, 64)) || !bytes.Equal(pageAt(&im.Pages, 3), page(0xbb, 64)) {
		t.Error("page content mismatch")
	}
	// Untouched page restores as zeros.
	if !bytes.Equal(im.PageOr(7), make([]byte, 64)) {
		t.Error("PageOr for untouched page should be zero")
	}
}

func TestRepositoryNewestWins(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 16)
	mustWrite := func(epoch uint64, pg int, b byte) {
		t.Helper()
		if err := r.WritePage(epoch, pg, page(b, 16), 16); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(1, 0, 1)
	mustWrite(1, 1, 2)
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	mustWrite(2, 1, 3) // page 1 updated in epoch 2
	if err := r.EndEpoch(2); err != nil {
		t.Fatal(err)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 2 {
		t.Errorf("epoch = %d", im.Epoch)
	}
	if pageAt(&im.Pages, 0)[0] != 1 || pageAt(&im.Pages, 1)[0] != 3 {
		t.Errorf("pages = %v %v", pageAt(&im.Pages, 0)[0], pageAt(&im.Pages, 1)[0])
	}
}

func TestUnsealedEpochIgnored(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 16)
	if err := r.WritePage(1, 0, page(1, 16), 16); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 crashes before sealing.
	if err := r.WritePage(2, 0, page(9, 16), 16); err != nil {
		t.Fatal(err)
	}
	r.Abort()
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 1 || pageAt(&im.Pages, 0)[0] != 1 {
		t.Errorf("restore picked up unsealed data: %+v", im)
	}
}

func TestEmptyEpochSeals(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 16)
	if err := r.EndEpoch(5); err != nil {
		t.Fatal(err)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 5 || im.Pages.Len() != 0 {
		t.Errorf("image = %+v", im)
	}
}

func TestRestoreDetectsCorruption(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 32)
	if err := r.WritePage(1, 0, page(7, 32), 32); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte.
	name := segmentName(1)
	fs.mu.Lock()
	fs.files[name][25] ^= 0xff
	fs.mu.Unlock()
	if _, err := Restore(fs); err == nil {
		t.Fatal("corrupted segment restored without error")
	}
	health, err := VerifyChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(health) != 1 || health[0].Status != StatusSegmentCorrupt {
		t.Errorf("VerifyChain missed corruption: %+v", health)
	}
}

func TestRestoreDetectsTruncation(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 32)
	for i := 0; i < 4; i++ {
		if err := r.WritePage(1, i, page(byte(i), 32), 32); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	fs.Truncate(segmentName(1), 70) // mid-record
	if _, err := Restore(fs); err == nil {
		t.Fatal("truncated segment restored without error")
	}
}

func TestRepositoryRejectsMisuse(t *testing.T) {
	r := NewRepository(&MemFS{}, 16)
	if err := r.WritePage(1, 0, nil, 16); err == nil {
		t.Error("nil data accepted")
	}
	if err := r.WritePage(1, 0, page(1, 16), 8); err == nil {
		t.Error("mismatched size accepted")
	}
	if err := r.WritePage(1, 0, page(1, 16), 16); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePage(2, 0, page(1, 16), 16); err == nil {
		t.Error("cross-epoch write accepted while epoch open")
	}
	if err := r.EndEpoch(9); err == nil {
		t.Error("sealing wrong epoch accepted")
	}
}

func TestRestoreEmptyRepo(t *testing.T) {
	if _, err := Restore(&MemFS{}); err == nil {
		t.Fatal("restore from empty repo should fail")
	}
}

// Property: for arbitrary sequences of epochs writing arbitrary subsets of
// pages, Restore returns exactly the newest write of every page.
func TestRestoreQuickNewestWins(t *testing.T) {
	f := func(seed uint64) bool {
		rng := util.NewRNG(seed)
		const pageSize, nPages = 8, 16
		fs := &MemFS{}
		r := NewRepository(fs, pageSize)
		want := map[int][]byte{}
		epochs := rng.Intn(5) + 1
		for e := 1; e <= epochs; e++ {
			for _, pg := range rng.Perm(nPages)[:rng.Intn(nPages+1)] {
				data := make([]byte, pageSize)
				for i := range data {
					data[i] = byte(rng.Uint64())
				}
				if r.WritePage(uint64(e), pg, data, pageSize) != nil {
					return false
				}
				want[pg] = data
			}
			if r.EndEpoch(uint64(e)) != nil {
				return false
			}
		}
		im, err := Restore(fs)
		if err != nil {
			return false
		}
		if im.Pages.Len() != len(want) {
			return false
		}
		for pg, data := range want {
			if !bytes.Equal(pageAt(&im.Pages, pg), data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRepository(fs, 128)
	if err := r.WritePage(1, 2, page(0x5c, 128), 128); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pageAt(&im.Pages, 2), page(0x5c, 128)) {
		t.Error("OSFS round trip mismatch")
	}
	names, err := fs.List()
	if err != nil || len(names) != 2 {
		t.Errorf("names = %v, err = %v", names, err)
	}
	if err := fs.Remove(names[0]); err != nil {
		t.Errorf("remove: %v", err)
	}
}

func TestCompressedRepositoryRoundTrip(t *testing.T) {
	for _, codec := range []compress.Codec{compress.Zero, compress.Flate} {
		fs := &MemFS{}
		r := NewRepository(fs, 256)
		r.SetCodec(codec)
		zero := make([]byte, 256)
		repetitive := bytes.Repeat([]byte{7, 8}, 128)
		if err := r.WritePage(1, 0, zero, 256); err != nil {
			t.Fatal(err)
		}
		if err := r.WritePage(1, 1, repetitive, 256); err != nil {
			t.Fatal(err)
		}
		if err := r.EndEpoch(1); err != nil {
			t.Fatal(err)
		}
		im, err := Restore(fs)
		if err != nil {
			t.Fatalf("codec %d: %v", codec, err)
		}
		if !bytes.Equal(pageAt(&im.Pages, 0), zero) || !bytes.Equal(pageAt(&im.Pages, 1), repetitive) {
			t.Errorf("codec %d: decoded pages differ", codec)
		}
		// The stored segment must actually be smaller than raw.
		fs.mu.Lock()
		segLen := len(fs.files[segmentName(1)])
		fs.mu.Unlock()
		if segLen >= 2*(20+256) {
			t.Errorf("codec %d: segment %d bytes, no compression happened", codec, segLen)
		}
		// VerifyChain must verify compressed epochs too.
		health, err := VerifyChain(fs)
		if err != nil || len(health) != 1 || health[0].Status != StatusOK {
			t.Errorf("codec %d: verify failed: %v %+v", codec, err, health)
		}
	}
}

func TestCompressedRepositoryDetectsCorruption(t *testing.T) {
	fs := &MemFS{}
	r := NewRepository(fs, 128)
	r.SetCodec(compress.Flate)
	if err := r.WritePage(1, 0, bytes.Repeat([]byte{3}, 128), 128); err != nil {
		t.Fatal(err)
	}
	if err := r.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	fs.files[segmentName(1)][22] ^= 0xff
	fs.mu.Unlock()
	if _, err := Restore(fs); err == nil {
		t.Fatal("corrupted compressed segment restored")
	}
}

func TestSetCodecWhileOpenPanics(t *testing.T) {
	r := NewRepository(&MemFS{}, 64)
	if err := r.WritePage(1, 0, make([]byte, 64), 64); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.SetCodec(compress.Flate)
}
