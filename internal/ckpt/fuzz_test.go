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

// FuzzVisitSegment feeds arbitrary segment bytes (with a manifest claiming
// pageCount records of pageSize bytes) to the record parser. It must reject
// or accept them without panicking, and every accepted record must be
// self-consistent with the declared page size.
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
		man := Manifest{Epoch: 1, PageSize: pageSize, PageCount: pageCount, TotalBytes: int64(len(seg))}
		putFile(t, fs, segmentName(1), seg)
		err := scanSegment(fs, man, func(page int, data []byte) {
			if len(data) != pageSize {
				t.Fatalf("visited record of %d bytes, page size %d", len(data), pageSize)
			}
			if page < 0 {
				t.Fatalf("visited negative page %d", page)
			}
		})
		_ = err // malformed segments must error, not panic
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
		if _, err := Inspect(fs); err != nil {
			t.Fatalf("Inspect errored on a loadable chain: %v", err)
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
