package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/util"
)

// oracleFold is the read-everything fold the winner-only one replaced: every
// segment read back in full, each record verified, and merged oldest to
// newest. The winner-only fold must agree with it wherever it succeeds.
func oracleFold(fs FS, entries []Manifest) (PageSet, error) {
	var pages PageSet
	for _, m := range entries {
		seg, err := oracleSegment(fs, m)
		if err != nil {
			return PageSet{}, err
		}
		pages.Merge(seg)
	}
	return pages, nil
}

// oracleSegment is the reference sequential parser, independent of the
// fold's reader: it reads every record of m's segment in file order,
// checks its framing and payload hash, decodes it, and lets a later record
// of a page replace an earlier one.
func oracleSegment(fs FS, m Manifest) (*PageSet, error) {
	if m.PageCount == 0 {
		return &PageSet{}, nil
	}
	f, err := fs.Open(segmentFile(m))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	seg, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	pages := map[int][]byte{}
	n := 0
	for ; len(seg) > 0; n++ {
		if len(seg) < recordHeaderSize || binary.LittleEndian.Uint32(seg) != recordMagic {
			return nil, fmt.Errorf("record %d: bad header", n)
		}
		page := int(binary.LittleEndian.Uint32(seg[4:]))
		size := int(binary.LittleEndian.Uint32(seg[8:]))
		if size > len(seg)-recordHeaderSize {
			return nil, fmt.Errorf("record %d: truncated payload", n)
		}
		payload := seg[recordHeaderSize : recordHeaderSize+size]
		hash := util.Fnv64a // v1 and v2 records
		if m.Format >= FormatV3 {
			hash = util.Xxh64
		}
		if hash(payload) != binary.LittleEndian.Uint64(seg[12:]) {
			return nil, fmt.Errorf("record %d: hash mismatch", n)
		}
		data := bytes.Clone(payload)
		if m.Codec != 0 {
			if data, err = compress.Decode(payload, m.PageSize); err != nil {
				return nil, fmt.Errorf("record %d: %w", n, err)
			}
		}
		if len(data) != m.PageSize {
			return nil, fmt.Errorf("record %d holds %d bytes, page size %d", n, len(data), m.PageSize)
		}
		pages[page] = data
		seg = seg[recordHeaderSize+size:]
	}
	if n != m.PageCount {
		return nil, fmt.Errorf("%d records, manifest says %d", n, m.PageCount)
	}
	return pageSetOf(pages), nil
}

// winnerSegments counts, from the manifests alone, the entries that hold
// the newest copy of at least one page: the segments a restore opens.
func winnerSegments(entries []Manifest) int {
	seen := map[int]bool{}
	n := 0
	for i := len(entries) - 1; i >= 0; i-- {
		owns := false
		for _, p := range entries[i].Pages {
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

// writeSeededChain seals epochs of random dirty sets over a 1,200-page
// space. A third of the pages keep one content forever (dedup refs when
// enabled), a few pages are written twice in one epoch, and every epoch
// dirties about half the space, so winners spread over several segments
// with gaps between them and the newest raw segment splits into chunks.
func writeSeededChain(t testing.TB, fs FS, seed int64, codec compress.Codec, epochs int) {
	t.Helper()
	const pageSize, space = 64, 1200
	rng := rand.New(rand.NewSource(seed))
	r := NewRepository(fs, pageSize)
	r.SetCodec(codec)
	r.SetDedup(true)
	data := make([]byte, pageSize)
	for e := uint64(1); e <= uint64(epochs); e++ {
		for p := 0; p < space; p++ {
			if rng.Intn(2) == 0 {
				continue
			}
			writes := 1
			if rng.Intn(50) == 0 {
				writes = 2
			}
			for w := 0; w < writes; w++ {
				if p%3 == 0 {
					clear(data)
					binary.LittleEndian.PutUint32(data, uint32(p))
				} else {
					rng.Read(data[:pageSize/2]) // the other half stays compressible
				}
				if err := r.WritePage(e, p, data, pageSize); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.EndEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
}

// The winner-only fold is bit-identical to the read-everything oracle —
// raw and Flate, with dedup refs, with and without a base, on MemFS and
// OSFS, at every reader count — and opens exactly the segments that own a
// winner.
func TestFoldChainMatchesOracle(t *testing.T) {
	for _, onDisk := range []bool{false, true} {
		for _, codec := range []compress.Codec{compress.None, compress.Flate} {
			for _, base := range []bool{false, true} {
				for seed := int64(1); seed <= 2; seed++ {
					name := fmt.Sprintf("osfs=%v/codec=%d/base=%v/seed=%d", onDisk, codec, base, seed)
					t.Run(name, func(t *testing.T) {
						var fs FS = &MemFS{}
						if onDisk {
							osfs, err := NewOSFS(t.TempDir())
							if err != nil {
								t.Fatal(err)
							}
							fs = osfs
						}
						writeSeededChain(t, fs, seed, codec, 8)
						if base {
							compactPrefix(t, fs, 5, 64, uint8(codec))
						}
						ch, err := LoadChain(fs)
						if err != nil {
							t.Fatal(err)
						}
						want, err := oracleFold(fs, ch.Live())
						if err != nil {
							t.Fatal(err)
						}
						for _, workers := range []int{1, 2, 8} {
							got, segments, err := FoldChain(fs, ch.Live(), workers)
							if err != nil {
								t.Fatalf("workers=%d: %v", workers, err)
							}
							if !got.Equal(&want) {
								t.Fatalf("workers=%d: image differs from the oracle fold", workers)
							}
							if want := winnerSegments(ch.Live()); segments != want {
								t.Fatalf("workers=%d: %d segments read, %d own a winner", workers, segments, want)
							}
						}
					})
				}
			}
		}
	}
}

// recordOffset walks a segment's headers to the start of record i.
func recordOffset(seg []byte, i int) int {
	off := 0
	for ; i > 0; i-- {
		off += recordHeaderSize + int(binary.LittleEndian.Uint32(seg[off+8:]))
	}
	return off
}

// Damage to a record the fold uses fails the restore and names the epoch
// and the page; damage only a superseded copy carries leaves the restore
// intact. VerifyChain reads every record with the same checks, so it flags
// both.
func TestFoldChainDamage(t *testing.T) {
	const pageSize = 64
	// Epoch 1 writes pages 0-3 and keeps only page 2 (its record 2); epoch
	// 2 rewrites 0 and 1 and keeps nothing; epoch 3 rewrites 0, 1 and 3.
	epochs := [][]byte{{1, 2, 3, 4}, {5, 6}, {7, 8, 0, 9}} // fill byte per page, 0 = clean
	build := func(t *testing.T, codec compress.Codec) *MemFS {
		fs := &MemFS{}
		r := NewRepository(fs, pageSize)
		r.SetCodec(codec)
		for e, fills := range epochs {
			for p, b := range fills {
				if b != 0 {
					if err := r.WritePage(uint64(e+1), p, page(b, pageSize), pageSize); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := r.EndEpoch(uint64(e + 1)); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}
	flipPayload := func(epoch uint64, rec int) func(*MemFS) {
		return func(fs *MemFS) {
			seg := fs.files[segmentName(epoch)]
			seg[recordOffset(seg, rec)+recordHeaderSize] ^= 0x10
		}
	}
	for _, tc := range []struct {
		name    string
		damage  func(*MemFS)
		wantErr string // "" when the restore must succeed
		scrub   uint64 // the epoch scrub must still flag, 0 for none
		rawOnly bool   // the check exists for raw records only
	}{
		{"winner payload", flipPayload(1, 2), "epoch 1 page 2", 1, false},
		{"superseded payload before a winner", flipPayload(1, 1), "", 1, false},
		{"superseded payload after a winner", flipPayload(1, 3), "", 1, false},
		{"superseded segment", flipPayload(2, 0), "", 2, false},
		{"winner header names another page", func(fs *MemFS) {
			seg := fs.files[segmentName(3)]
			binary.LittleEndian.PutUint32(seg[recordOffset(seg, 1)+4:], 9)
		}, "epoch 3 page 1", 3, false},
		{"winner content hash in the manifest", func(fs *MemFS) {
			var m Manifest
			if err := json.Unmarshal(fs.files[manifestName(3)], &m); err != nil {
				panic(err)
			}
			m.Hashes[0] ^= 1
			fs.files[manifestName(3)], _ = json.Marshal(m)
		}, "epoch 3 page 0", 3, true},
		{"truncated winner", func(fs *MemFS) { fs.Truncate(segmentName(3), 30) }, "epoch 3 page 0", 3, false},
		{"bytes after the last record", func(fs *MemFS) {
			fs.files[segmentName(3)] = append(fs.files[segmentName(3)], buildRecord(FormatV3, 5, page(1, pageSize))...)
		}, "", 3, false},
	} {
		for _, codec := range []compress.Codec{compress.None, compress.Flate} {
			if tc.rawOnly && codec != compress.None {
				continue
			}
			t.Run(fmt.Sprintf("%s/codec=%d", tc.name, codec), func(t *testing.T) {
				fs := build(t, codec)
				ch, err := LoadChain(fs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleFold(fs, ch.Live())
				if err != nil {
					t.Fatal(err)
				}
				tc.damage(fs)
				for _, workers := range []int{1, 4} {
					im, err := RestoreWith(fs, RestoreOptions{Workers: workers})
					switch {
					case tc.wantErr == "" && err != nil:
						t.Fatalf("workers=%d: %v", workers, err)
					case tc.wantErr == "" && !im.Pages.Equal(&want):
						t.Fatalf("workers=%d: image differs from the undamaged one", workers)
					case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
						t.Fatalf("workers=%d: err = %v, want one naming %q", workers, err, tc.wantErr)
					}
				}
				if tc.scrub == 0 {
					return
				}
				health, err := VerifyChain(fs)
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range health {
					if h.Epoch == tc.scrub && h.Status != StatusSegmentCorrupt {
						t.Fatalf("VerifyChain reports epoch %d as %q", tc.scrub, h.Status)
					}
				}
			})
		}
	}
}
