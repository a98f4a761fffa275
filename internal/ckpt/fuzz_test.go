package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"maps"
	"slices"
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

// buildRecord encodes one wire record (header + payload), hashed as an
// entry of the given manifest format hashes it, for seeds and for the
// fuzzers' hand-built inputs.
func buildRecord(format, page int, payload []byte) []byte {
	rec := make([]byte, 20+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], recordMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(page))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[12:], (&Manifest{Format: format}).hash(payload))
	copy(rec[20:], payload)
	return rec
}

// putV2Epoch seals epoch as a format-v2 writer did: one raw record per page,
// in ascending page order, FNV-64a record and content hashes, and refs as
// given.
func putV2Epoch(t testing.TB, fs *MemFS, epoch uint64, pageSize int, pages map[int][]byte, refs []PageRef) Manifest {
	t.Helper()
	man := Manifest{Epoch: epoch, PageSize: pageSize, Format: FormatV2, Refs: refs}
	var seg []byte
	for _, p := range slices.Sorted(maps.Keys(pages)) {
		seg = append(seg, buildRecord(FormatV2, p, pages[p])...)
		man.Pages = append(man.Pages, p)
		man.Hashes = append(man.Hashes, util.Fnv64a(pages[p]))
	}
	man.PageCount, man.TotalBytes = len(man.Pages), int64(len(seg))
	if len(seg) > 0 {
		putFile(t, fs, segmentName(epoch), seg)
	}
	js, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	putFile(t, fs, manifestName(epoch), js)
	return man
}

// FuzzVisitSegment feeds arbitrary segment bytes to VerifyChain's per-entry
// check, under a manifest of the given format claiming pageCount records of
// pageSize bytes whose page list is read off the records' own headers where
// there are any. It must reject or accept them without panicking, and a
// segment it accepts must restore: the fold reads it back as pages of
// pageSize bytes.
func FuzzVisitSegment(f *testing.F) {
	for _, format := range []int{0, FormatV3} {
		valid := append(buildRecord(format, 0, bytes.Repeat([]byte{0xaa}, 16)), buildRecord(format, 3, bytes.Repeat([]byte{0xbb}, 16))...)
		f.Add(valid, 16, 2, format)
		f.Add([]byte{}, 16, 0, format)
		f.Add(buildRecord(format, 1, []byte("0123456789abcdef"))[:19], 16, 1, format) // truncated header
		corrupt := buildRecord(format, 2, bytes.Repeat([]byte{0xcc}, 16))
		corrupt[25] ^= 0xff // flip a payload byte under the hash
		f.Add(corrupt, 16, 1, format)
	}
	// A v2 record under a v3 manifest, which the v3 hash check rejects.
	f.Add(buildRecord(FormatV2, 0, bytes.Repeat([]byte{0xaa}, 16)), 16, 1, FormatV3)
	f.Fuzz(func(t *testing.T, seg []byte, pageSize, pageCount, format int) {
		if pageSize < 1 || pageSize > 1<<16 || pageCount < 0 || pageCount > 1<<12 {
			t.Skip()
		}
		fs := &MemFS{}
		man := Manifest{Epoch: 1, PageSize: pageSize, PageCount: pageCount, TotalBytes: int64(len(seg)),
			Pages: make([]int, pageCount), Format: format}
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
// pages 1 and 3, of format format%4 (v2 and v3 with content hashes) — over
// an intact epoch 1 that wrote pages 0 to 3, as a v2 writer did when v2Base
// is set and a v3 one otherwise, and runs the winner-only fold on it. The
// fold must fail or return the right image: equal to the read-everything
// oracle whenever that succeeds, epoch 1's content for pages 0 and 2, and,
// for raw records, content matching the manifest's hashes for pages 1 and
// 3. It must never panic.
func FuzzFoldSegment(f *testing.F) {
	const pageSize = 16
	newer := [][]byte{bytes.Repeat([]byte{0x11}, pageSize), bytes.Repeat([]byte{0x33}, pageSize)}
	for _, format := range []uint8{0, FormatV2, FormatV3} {
		raw := append(buildRecord(int(format), 1, newer[0]), buildRecord(int(format), 3, newer[1])...)
		flate := append(buildRecord(int(format), 1, compress.Encode(compress.Flate, newer[0])), buildRecord(int(format), 3, compress.Encode(compress.Flate, newer[1]))...)
		for _, v2Base := range []bool{false, true} {
			f.Add(raw, uint8(compress.None), format, v2Base)
			f.Add(flate, uint8(compress.Flate), format, v2Base)
		}
		f.Add(raw[:len(raw)-3], uint8(compress.None), format, false)                            // truncated winner
		f.Add(append(buildRecord(int(format), 3, newer[1]), raw...), uint8(0), format, true)    // records out of manifest order
		f.Add(append(flate, buildRecord(int(format), 5, newer[0])...), uint8(2), format, false) // a record the manifest does not list
	}
	// v2 records under a v3 manifest, and the reverse.
	v2raw := append(buildRecord(FormatV2, 1, newer[0]), buildRecord(FormatV2, 3, newer[1])...)
	f.Add(v2raw, uint8(compress.None), uint8(FormatV3), true)
	v3raw := append(buildRecord(FormatV3, 1, newer[0]), buildRecord(FormatV3, 3, newer[1])...)
	f.Add(v3raw, uint8(compress.None), uint8(FormatV2), true)
	f.Fuzz(func(t *testing.T, seg []byte, codec, format uint8, v2Base bool) {
		fs := &MemFS{}
		older := map[int][]byte{}
		for p := 0; p < 4; p++ {
			older[p] = page(byte(0xe0+p), pageSize)
		}
		if v2Base {
			putV2Epoch(t, fs, 1, pageSize, older, nil)
		} else {
			r := NewRepository(fs, pageSize)
			for p := 0; p < 4; p++ {
				if err := r.WritePage(1, p, older[p], pageSize); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.EndEpoch(1); err != nil {
				t.Fatal(err)
			}
		}
		man := Manifest{Epoch: 2, PageSize: pageSize, PageCount: 2, Pages: []int{1, 3},
			TotalBytes: int64(len(seg)), Codec: codec % 3, Format: int(format % 4)}
		hashes := man.Format >= FormatV2
		if hashes {
			man.Hashes = []uint64{man.hash(newer[0]), man.hash(newer[1])}
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
// and the full restore path, over a one-record segment hashed as a v3 writer
// hashes it when v3Record is set and as a v2 one otherwise. Whatever the
// bytes say, nothing may panic, and a chain that loads must restore or fail
// cleanly.
func FuzzManifestDecode(f *testing.F) {
	content := bytes.Repeat([]byte{1}, 16)
	for _, format := range []int{FormatV2, FormatV3} {
		m := Manifest{Epoch: 1, PageSize: 16, PageCount: 1, Pages: []int{0}, Format: format, TotalBytes: 36}
		m.Hashes = []uint64{m.hash(content)}
		good, _ := json.Marshal(m)
		f.Add(good, format == FormatV3)
		f.Add(good, format != FormatV3) // records of the other format
	}
	f.Add([]byte(`{"epoch":2,"page_size":16,"page_count":0,"pages":[]}`), false)
	f.Add([]byte(`{"epoch":1,"page_size":-3,"pages":null,"refs":[{"page":1,"epoch":0}]}`), false)
	f.Add([]byte(`{"epoch":1,"page_size":16,"format":3,"pages":null,"refs":[{"page":1,"epoch":0,"hash":7}]}`), true)
	f.Add([]byte(`{"epoch":1,"base":{"from":5,"to":2}}`), false)
	f.Add([]byte(`not json`), true)
	f.Fuzz(func(t *testing.T, manJSON []byte, v3Record bool) {
		fs := &MemFS{}
		putFile(t, fs, manifestName(1), manJSON)
		// A 1-record segment so manifests claiming content find some bytes.
		recFormat := FormatV2
		if v3Record {
			recFormat = FormatV3
		}
		putFile(t, fs, segmentName(1), buildRecord(recFormat, 0, content))
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
// with dedup on, which exercises the manifest Refs machinery. With v2First
// the repository extends a v2 epoch that holds the same content: no page
// may dedup against it, and the rewrite after that dedups every page.
func FuzzRepositoryRoundTrip(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(0), true, false)
	f.Add(bytes.Repeat([]byte{0}, 64), uint8(1), true, false)
	f.Add([]byte("same same same same "), uint8(2), false, false)
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(0), true, true)
	f.Add(bytes.Repeat([]byte{7}, 48), uint8(2), true, true)
	f.Fuzz(func(t *testing.T, blob []byte, codec uint8, dedup, v2First bool) {
		const pageSize = 16
		want := map[int][]byte{}
		for i := 0; i+pageSize <= len(blob) && i/pageSize < 64; i += pageSize {
			want[i/pageSize] = blob[i : i+pageSize]
		}
		if len(want) == 0 {
			t.Skip()
		}
		fs := &MemFS{}
		epoch := uint64(1)
		if v2First {
			putV2Epoch(t, fs, 1, pageSize, want, nil)
			epoch = 2
		}
		r := NewRepository(fs, pageSize)
		r.SetCodec(compress.Codec(codec % 3))
		r.SetDedup(dedup)
		writeAll := func(epoch uint64) Manifest {
			page := make([]byte, pageSize)
			for pg := range len(want) {
				copy(page, want[pg])
				if err := r.WritePage(epoch, pg, page, pageSize); err != nil {
					t.Fatalf("WritePage(%d): %v", pg, err)
				}
			}
			if err := r.EndEpoch(epoch); err != nil {
				t.Fatalf("EndEpoch: %v", err)
			}
			m, err := ReadManifest(fs, epoch)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		if m := writeAll(epoch); v2First && (len(m.Refs) != 0 || m.PageCount != len(want)) {
			t.Fatalf("over a v2 epoch of the same content: %d records, %d refs, want %d and 0", m.PageCount, len(m.Refs), len(want))
		}
		if v2First && dedup {
			if m := writeAll(epoch + 1); len(m.Refs) != len(want) {
				t.Fatalf("the rewrite after the v3 epoch dedups %d of %d pages", len(m.Refs), len(want))
			}
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
