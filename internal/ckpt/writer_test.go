package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/util"
)

// fileBytes reads one published file of a MemFS in full.
func fileBytes(t testing.TB, fs FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// stamped is the deterministic content of page p at version v; distinct
// (p, v) pairs differ, so nothing dedups by accident.
func stamped(p, v, size int) []byte {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(p*7 + v*31 + i/5)
	}
	binary.LittleEndian.PutUint32(data, uint32(p))
	data[4] = byte(v)
	return data
}

// writeEpochConcurrently writes pages [0, n) of one epoch at version v from
// the given number of goroutines and seals it.
func writeEpochConcurrently(t *testing.T, r *Repository, epoch uint64, n, v, size, writers int) {
	t.Helper()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				if err := r.WritePage(epoch, p, stamped(p, v, size), size); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for p := 0; p < n; p++ {
		next <- p
	}
	close(next)
	wg.Wait()
	if err := r.EndEpoch(epoch); err != nil {
		t.Fatal(err)
	}
}

// checkSegmentMatchesManifest walks the raw segment bytes of a sealed
// epoch: record i must be page man.Pages[i], self-checking, decode to that
// page's content at version v, with man.Hashes[i] the hash of that raw
// content — and the file must end with the last record.
func checkSegmentMatchesManifest(t *testing.T, fs FS, epoch uint64, v, size int) Manifest {
	t.Helper()
	man, err := ReadManifest(fs, epoch)
	if err != nil {
		t.Fatal(err)
	}
	seg := fileBytes(t, fs, segmentName(epoch))
	if int64(len(seg)) != man.TotalBytes {
		t.Fatalf("epoch %d: segment is %d bytes, manifest says %d", epoch, len(seg), man.TotalBytes)
	}
	if man.Format != FormatV3 || len(man.Pages) != man.PageCount || len(man.Hashes) != man.PageCount {
		t.Fatalf("epoch %d: format %d, %d pages, %d hashes, count %d", epoch, man.Format, len(man.Pages), len(man.Hashes), man.PageCount)
	}
	for i, p := range man.Pages {
		if len(seg) < 20 {
			t.Fatalf("epoch %d: segment ends before record %d", epoch, i)
		}
		if binary.LittleEndian.Uint32(seg[0:]) != recordMagic {
			t.Fatalf("epoch %d record %d: bad magic", epoch, i)
		}
		if got := int(binary.LittleEndian.Uint32(seg[4:])); got != p {
			t.Fatalf("epoch %d record %d holds page %d, manifest lists %d", epoch, i, got, p)
		}
		n := int(binary.LittleEndian.Uint32(seg[8:]))
		payload := seg[20 : 20+n]
		if util.Xxh64(payload) != binary.LittleEndian.Uint64(seg[12:]) {
			t.Fatalf("epoch %d record %d: payload does not match its record hash", epoch, i)
		}
		raw := payload
		if man.Codec != 0 {
			if raw, err = compress.Decode(payload, size); err != nil {
				t.Fatalf("epoch %d record %d: %v", epoch, i, err)
			}
		}
		if !bytes.Equal(raw, stamped(p, v, size)) {
			t.Fatalf("epoch %d record %d: content is not page %d at version %d", epoch, i, p, v)
		}
		if man.Hashes[i] != contentHash(raw) {
			t.Fatalf("epoch %d record %d: manifest hash is not the raw content's", epoch, i)
		}
		seg = seg[20+n:]
	}
	if len(seg) != 0 {
		t.Fatalf("epoch %d: %d bytes after the last record", epoch, len(seg))
	}
	return man
}

// File order is manifest order for any number of writers: the locked append
// puts a record in the buffer and its entry in the manifest together. The
// 8 KiB cases run several buffers long, the 64 B ones stay inside one.
func TestSegmentOrderIsManifestOrder(t *testing.T) {
	for _, writers := range []int{1, 2, 8} {
		for _, codec := range []compress.Codec{compress.None, compress.Flate} {
			for _, size := range []int{64, 8192} {
				t.Run(fmt.Sprintf("writers%d/codec%d/page%d", writers, codec, size), func(t *testing.T) {
					const pages = 150
					fs := &MemFS{}
					r := NewRepository(fs, size)
					r.SetCodec(codec)
					writeEpochConcurrently(t, r, 1, pages, 1, size, writers)
					man := checkSegmentMatchesManifest(t, fs, 1, 1, size)
					if man.PageCount != pages {
						t.Fatalf("%d records, want %d", man.PageCount, pages)
					}
					if codec == compress.None && size == 8192 && man.TotalBytes < 3*segmentBufSize {
						t.Fatalf("segment of %d bytes does not span several %d-byte buffers", man.TotalBytes, segmentBufSize)
					}
				})
			}
		}
	}
}

// The repository's one buffer serves every epoch: consecutive epochs, an
// epoch abandoned with records still buffered, and the clean epoch after it
// each produce exactly their own records — no byte of an earlier epoch, nor
// of the abandoned one, reaches a later segment.
func TestSegmentBufferIsReusedCleanly(t *testing.T) {
	const size, pages = 8192, 100 // ~800 KiB per epoch: many buffers, and a partly filled last one
	fs := &MemFS{}
	r := NewRepository(fs, size)
	writeEpochConcurrently(t, r, 1, pages, 1, size, 2)
	writeEpochConcurrently(t, r, 2, pages, 2, size, 2)
	checkSegmentMatchesManifest(t, fs, 1, 1, size)
	checkSegmentMatchesManifest(t, fs, 2, 2, size)

	// Epoch 3 is abandoned mid-buffer: of its five records the first few
	// were flushed to the (never published) file, the rest sit in the
	// buffer.
	if 5*(20+size) <= segmentBufSize || 5*(20+size) >= 2*segmentBufSize {
		t.Fatalf("five records no longer straddle one %d-byte buffer; resize the abandoned epoch", segmentBufSize)
	}
	for p := 0; p < 5; p++ {
		if err := r.WritePage(3, p, stamped(p, 3, size), size); err != nil {
			t.Fatal(err)
		}
	}
	r.Abort()
	if _, err := ReadManifest(fs, 3); err == nil {
		t.Fatal("aborted epoch 3 is sealed")
	}
	// The same epoch, written again with the same content: its segment holds
	// exactly its own records (the five abandoned ones would shift every
	// record and lengthen the file), and since the abandoned writes were
	// never sealed none of the new ones may dedup against them.
	writeEpochConcurrently(t, r, 3, pages, 3, size, 2)
	man := checkSegmentMatchesManifest(t, fs, 3, 3, size)
	if man.PageCount != pages || len(man.Refs) != 0 {
		t.Fatalf("epoch 3 after the abort: %d records, %d refs, want %d and 0", man.PageCount, len(man.Refs), pages)
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if !bytes.Equal(im.PageOr(p), stamped(p, 3, size)) {
			t.Fatalf("restored page %d is not version 3", p)
		}
	}
}

// The on-disk format is pinned byte for byte: testdata/format holds the
// segment and manifest a single writer produces for three pages, with and
// without a codec. The v3-* files are what the repository writes; the
// unprefixed ones are a format-v2 writer's, which must still verify and
// restore to the same pages. (The flate bytes are the standard library's; a
// Go release that changes its DEFLATE output moves those goldens without the
// format having changed.)
func TestSegmentFormatGolden(t *testing.T) {
	for name, codec := range map[string]compress.Codec{"none": compress.None, "flate": compress.Flate} {
		t.Run(name, func(t *testing.T) {
			fs := &MemFS{}
			r := NewRepository(fs, 64)
			r.SetCodec(codec)
			want := map[int][]byte{}
			for i, p := range []int{5, 0, 9} {
				data := make([]byte, 64)
				for j := range data {
					data[j] = byte(p*17 + j/8 + i)
				}
				want[p] = data
				if err := r.WritePage(1, p, data, 64); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.EndEpoch(1); err != nil {
				t.Fatal(err)
			}
			v2 := &MemFS{}
			for _, file := range []string{segmentName(1), manifestName(1)} {
				golden := func(prefix string) []byte {
					data, err := os.ReadFile(filepath.Join("testdata", "format", prefix+name+"-"+file))
					if err != nil {
						t.Fatal(err)
					}
					return data
				}
				if got, want := fileBytes(t, fs, file), golden("v3-"); !bytes.Equal(got, want) {
					t.Errorf("%s differs from the golden:\n got %q\nwant %q", file, got, want)
				}
				putFile(t, v2, file, golden(""))
			}
			hs, err := VerifyChain(v2)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hs {
				if h.Status != StatusOK {
					t.Errorf("v2 golden %s: %s %s", h.Manifest, h.Status, h.Detail)
				}
			}
			im, err := Restore(v2)
			if err != nil {
				t.Fatal(err)
			}
			if !im.Pages.Equal(pageSetOf(want)) {
				t.Error("the v2 golden does not restore to the pages written")
			}
		})
	}
}

// The repository is a passive object: it starts no goroutine, at the first
// page, at a seal, or in between. A goroutine count would also move with the
// runtime's finalizer goroutine and earlier tests' goroutines exiting, so
// the check reads every goroutine's stack instead: none but the test's own
// (the first one runtime.Stack lists) may run this package's code.
func TestRepositoryStartsNoGoroutine(t *testing.T) {
	const size = 4096
	r := NewRepository(&MemFS{}, size)
	buf := make([]byte, 1<<20)
	noOtherGoroutine := func(when string) {
		t.Helper()
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
			if strings.Contains(g, "repro/internal/ckpt.") {
				t.Fatalf("a goroutine runs repository code %s:\n%s", when, g)
			}
		}
	}
	for e := uint64(1); e <= 2; e++ {
		for p := 0; p < 128; p++ {
			if err := r.WritePage(e, p, stamped(p, int(e), size), size); err != nil {
				t.Fatal(err)
			}
			noOtherGoroutine(fmt.Sprintf("with epoch %d open", e))
		}
		if err := r.EndEpoch(e); err != nil {
			t.Fatal(err)
		}
		noOtherGoroutine(fmt.Sprintf("after sealing epoch %d", e))
	}
}
