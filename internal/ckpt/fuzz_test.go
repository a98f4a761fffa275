package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"repro/internal/compress"
	"repro/internal/util"
)

// putFile drops raw bytes into a MemFS under name.
func putFile(t testing.TB, fs *MemFS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", name, err)
	}
}

// buildRecord encodes one wire record (header + payload) for seeds and for
// the segment fuzzer's hand-built inputs.
func buildRecord(page int, payload []byte) []byte {
	rec := make([]byte, 20+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], recordMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(page))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[12:], util.Fnv64a(payload))
	copy(rec[20:], payload)
	return rec
}

// FuzzVisitSegment feeds arbitrary segment bytes to VerifyChain's per-entry
// check, under a manifest claiming pageCount records of pageSize bytes whose
// page list is read off the records' own headers where there are any. It
// must reject or accept them without panicking, and a segment it accepts
// must restore: the fold reads it back as pages of pageSize bytes.
func FuzzVisitSegment(f *testing.F) {
	valid := append(buildRecord(0, bytes.Repeat([]byte{0xaa}, 16)), buildRecord(3, bytes.Repeat([]byte{0xbb}, 16))...)
	f.Add(valid, 16, 2)
	f.Add([]byte{}, 16, 0)
	f.Add(buildRecord(1, []byte("0123456789abcdef"))[:19], 16, 1) // truncated header
	corrupt := buildRecord(2, bytes.Repeat([]byte{0xcc}, 16))
	corrupt[25] ^= 0xff // flip a payload byte under the hash
	f.Add(corrupt, 16, 1)
	f.Fuzz(func(t *testing.T, seg []byte, pageSize, pageCount int) {
		if pageSize < 1 || pageSize > 1<<16 || pageCount < 0 || pageCount > 1<<12 {
			t.Skip()
		}
		fs := &MemFS{}
		man := Manifest{Epoch: 1, PageSize: pageSize, PageCount: pageCount, TotalBytes: int64(len(seg)),
			Pages: make([]int, pageCount)}
		for r, off := 0, 0; r < pageCount && off+recordHeaderSize <= len(seg); r++ {
			man.Pages[r] = int(binary.LittleEndian.Uint32(seg[off+4:]))
			off += recordHeaderSize + int(binary.LittleEndian.Uint32(seg[off+8:]))
		}
		putFile(t, fs, segmentName(1), seg)
		if verifySegment(fs, man) != nil {
			return // malformed segments must error, not panic
		}
		pages, _, err := FoldChain(fs, []Manifest{man}, 1)
		if err != nil {
			t.Fatalf("verified segment does not fold: %v", err)
		}
		for id, data := range pages.All() {
			if len(data) != pageSize {
				t.Fatalf("page %d folded to %d bytes, page size %d", id, len(data), pageSize)
			}
		}
	})
}

// FuzzFoldSegment puts a fuzzed segment under a valid manifest — epoch 2,
// pages 1 and 3, over an intact epoch 1 that wrote pages 0 to 3 — and runs
// the winner-only fold on it. The fold must fail or return the right image:
// equal to the read-everything oracle whenever that succeeds, epoch 1's
// content for pages 0 and 2, and, for raw records, content matching the
// manifest's hashes for pages 1 and 3. It must never panic.
func FuzzFoldSegment(f *testing.F) {
	const pageSize = 16
	newer := [][]byte{bytes.Repeat([]byte{0x11}, pageSize), bytes.Repeat([]byte{0x33}, pageSize)}
	raw := append(buildRecord(1, newer[0]), buildRecord(3, newer[1])...)
	flate := append(buildRecord(1, compress.Encode(compress.Flate, newer[0])), buildRecord(3, compress.Encode(compress.Flate, newer[1]))...)
	f.Add(raw, uint8(compress.None), true)
	f.Add(raw, uint8(compress.None), false)
	f.Add(flate, uint8(compress.Flate), true)
	f.Add(raw[:len(raw)-3], uint8(compress.None), true)                // truncated winner
	f.Add(append(buildRecord(3, newer[1]), raw...), uint8(0), true)    // records out of manifest order
	f.Add(append(flate, buildRecord(5, newer[0])...), uint8(2), false) // a record the manifest does not list
	f.Fuzz(func(t *testing.T, seg []byte, codec uint8, hashes bool) {
		fs := &MemFS{}
		r := NewRepository(fs, pageSize)
		for p := 0; p < 4; p++ {
			if err := r.WritePage(1, p, page(byte(0xe0+p), pageSize), pageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.EndEpoch(1); err != nil {
			t.Fatal(err)
		}
		man := Manifest{Epoch: 2, PageSize: pageSize, PageCount: 2, Pages: []int{1, 3},
			TotalBytes: int64(len(seg)), Codec: codec % 3}
		if hashes {
			man.Format, man.Hashes = FormatV2, []uint64{contentHash(newer[0]), contentHash(newer[1])}
		}
		manJSON, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		putFile(t, fs, segmentName(2), seg)
		putFile(t, fs, manifestName(2), manJSON)
		ch, err := LoadChain(fs)
		if err != nil {
			t.Fatalf("valid manifest rejected: %v", err)
		}
		want, oracleErr := oracleFold(fs, ch.Live())
		for _, workers := range []int{1, 2} {
			got, _, err := FoldChain(fs, ch.Live(), workers)
			if err != nil {
				continue
			}
			if oracleErr == nil && !got.Equal(&want) {
				t.Fatalf("workers=%d: fold differs from the oracle", workers)
			}
			if got.Len() != 4 {
				t.Fatalf("workers=%d: %d pages, want 4", workers, got.Len())
			}
			for _, p := range []int{0, 2} {
				if !bytes.Equal(pageAt(&got, p), page(byte(0xe0+p), pageSize)) {
					t.Fatalf("workers=%d: page %d is not epoch 1's", workers, p)
				}
			}
			for i, p := range []int{1, 3} {
				data := pageAt(&got, p)
				if len(data) != pageSize || hashes && man.Codec == 0 && !bytes.Equal(data, newer[i]) {
					t.Fatalf("workers=%d: page %d restored as %x", workers, p, data)
				}
			}
		}
	})
}

// FuzzManifestDecode feeds arbitrary manifest JSON through the chain loader
// and the full restore path. Whatever the bytes say, nothing may panic, and
// a chain that loads must restore or fail cleanly.
func FuzzManifestDecode(f *testing.F) {
	good, _ := json.Marshal(Manifest{Epoch: 1, PageSize: 16, PageCount: 1, Pages: []int{0}, Hashes: []uint64{util.Fnv64a(bytes.Repeat([]byte{1}, 16))}, Format: FormatV2})
	f.Add(good)
	f.Add([]byte(`{"epoch":2,"page_size":16,"page_count":0,"pages":[]}`))
	f.Add([]byte(`{"epoch":1,"page_size":-3,"pages":null,"refs":[{"page":1,"epoch":0}]}`))
	f.Add([]byte(`{"epoch":1,"base":{"from":5,"to":2}}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, manJSON []byte) {
		fs := &MemFS{}
		putFile(t, fs, manifestName(1), manJSON)
		// A 1-record segment so manifests claiming content find some bytes.
		putFile(t, fs, segmentName(1), buildRecord(0, bytes.Repeat([]byte{1}, 16)))
		ch, err := LoadChain(fs)
		if err != nil {
			return
		}
		_, _ = Restore(fs)
		if _, err := VerifyChain(fs); err != nil {
			t.Fatalf("VerifyChain errored on a chain the strict loader accepts: %v", err)
		}
		for _, m := range ch.Epochs {
			_, _, _ = EpochPages(fs, m.Epoch)
		}
	})
}

// FuzzRepositoryRoundTrip drives the real write path with fuzz-derived page
// content and checks the restored image is bit-identical — across codecs and
// with dedup on, which exercises the manifest Refs machinery.
func FuzzRepositoryRoundTrip(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(0), true)
	f.Add(bytes.Repeat([]byte{0}, 64), uint8(1), true)
	f.Add([]byte("same same same same "), uint8(2), false)
	f.Fuzz(func(t *testing.T, blob []byte, codec uint8, dedup bool) {
		const pageSize = 16
		if len(blob) == 0 {
			t.Skip()
		}
		fs := &MemFS{}
		r := NewRepository(fs, pageSize)
		r.SetCodec(compress.Codec(codec % 3))
		r.SetDedup(dedup)
		want := map[int][]byte{}
		page := make([]byte, pageSize)
		for i := 0; i+pageSize <= len(blob) && i/pageSize < 64; i += pageSize {
			copy(page, blob[i:i+pageSize])
			pg := i / pageSize
			if err := r.WritePage(1, pg, page, pageSize); err != nil {
				t.Fatalf("WritePage(%d): %v", pg, err)
			}
			want[pg] = append([]byte(nil), page...)
		}
		if len(want) == 0 {
			t.Skip()
		}
		if err := r.EndEpoch(1); err != nil {
			t.Fatalf("EndEpoch: %v", err)
		}
		im, err := Restore(fs)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if im.Pages.Len() != len(want) {
			t.Fatalf("restored %d pages, wrote %d", im.Pages.Len(), len(want))
		}
		for pg, data := range want {
			if !bytes.Equal(pageAt(&im.Pages, pg), data) {
				t.Fatalf("page %d corrupted: got %x want %x", pg, pageAt(&im.Pages, pg), data)
			}
		}
	})
}
