package ckpt

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/compress"
)

// The concurrent write path: many goroutines write pages of one epoch at
// once, each record goes through the one locked append, and the sealed
// epoch reads back intact — physical records, dedup refs and manifest
// bookkeeping all consistent. Run with -race.
func TestRepositoryConcurrentWritePage(t *testing.T) {
	for _, codec := range []compress.Codec{compress.None, compress.Flate} {
		codec := codec
		t.Run(fmt.Sprintf("codec%d", codec), func(t *testing.T) {
			const pageSize, nPages, writers = 128, 96, 8
			fs := &MemFS{}
			repo := NewRepository(fs, pageSize)
			repo.SetCodec(codec)

			content := func(p int, stamp byte) []byte {
				data := make([]byte, pageSize)
				for i := range data {
					data[i] = byte(p)*5 + stamp + byte(i%11)
				}
				return data
			}
			writeEpoch := func(epoch uint64, stampFor func(p int) byte) {
				var wg sync.WaitGroup
				work := make(chan int)
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for p := range work {
							// Write through a scratch buffer the caller
							// mutates afterwards: the repository must not
							// retain it.
							scratch := content(p, stampFor(p))
							if err := repo.WritePage(epoch, p, scratch, pageSize); err != nil {
								t.Error(err)
								return
							}
							for i := range scratch {
								scratch[i] = 0xFF
							}
						}
					}()
				}
				for p := 0; p < nPages; p++ {
					work <- p
				}
				close(work)
				wg.Wait()
				if err := repo.EndEpoch(epoch); err != nil {
					t.Fatal(err)
				}
			}

			writeEpoch(1, func(p int) byte { return 1 })
			// Epoch 2 rewrites even pages identically (dedup refs) and odd
			// pages with fresh content (physical records).
			writeEpoch(2, func(p int) byte {
				if p%2 == 0 {
					return 1
				}
				return 2
			})

			m1, pages1, err := EpochPages(fs, 1)
			if err != nil {
				t.Fatal(err)
			}
			if m1.PageCount != nPages || len(m1.Refs) != 0 {
				t.Fatalf("epoch 1: %d records, %d refs, want %d records", m1.PageCount, len(m1.Refs), nPages)
			}
			for p := 0; p < nPages; p++ {
				if !bytes.Equal(pageAt(&pages1, p), content(p, 1)) {
					t.Fatalf("epoch 1 page %d content mismatch", p)
				}
			}
			m2, pages2, err := EpochPages(fs, 2)
			if err != nil {
				t.Fatal(err)
			}
			if m2.PageCount != nPages/2 || len(m2.Refs) != nPages/2 {
				t.Fatalf("epoch 2: %d records, %d refs, want %d each", m2.PageCount, len(m2.Refs), nPages/2)
			}
			for p := 1; p < nPages; p += 2 {
				if !bytes.Equal(pageAt(&pages2, p), content(p, 2)) {
					t.Fatalf("epoch 2 page %d content mismatch", p)
				}
			}

			im, err := Restore(fs)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < nPages; p++ {
				stamp := byte(1)
				if p%2 == 1 {
					stamp = 2
				}
				if !bytes.Equal(pageAt(&im.Pages, p), content(p, stamp)) {
					t.Fatalf("restored page %d content mismatch", p)
				}
			}
			stats := repo.DedupStats()
			if stats.PagesStored != nPages+nPages/2 || stats.PagesDeduped != nPages/2 {
				t.Errorf("dedup stats = %+v", stats)
			}
		})
	}
}

// A segment that cannot be created surfaces at WritePage, and the epoch
// stays unsealed (invisible to restore) — the crash-consistency contract.
func TestRepositorySegmentCreateErrorLeavesEpochUnsealed(t *testing.T) {
	const pageSize = 64
	fs := &MemFS{}
	repo := NewRepository(fs, pageSize)
	data := bytes.Repeat([]byte{7}, pageSize)
	if err := repo.WritePage(1, 0, data, pageSize); err != nil {
		t.Fatal(err)
	}
	if err := repo.EndEpoch(1); err != nil {
		t.Fatal(err)
	}
	bad := &failingCreateFS{FS: fs, failOn: segmentName(2)}
	repo2 := NewRepository(bad, pageSize)
	if err := repo2.WritePage(2, 0, bytes.Repeat([]byte{8}, pageSize), pageSize); err == nil {
		t.Fatal("segment create failure not surfaced")
	}
	// The chain still restores to epoch 1.
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 1 {
		t.Fatalf("restored epoch %d, want 1", im.Epoch)
	}
}

// A record that never reaches the segment file — the buffer's flush fails,
// at the latest at the seal — discards the whole epoch, and the epoch's
// dedup/storage counters go with it, so DedupStats only ever describes
// bytes a restore can read.
func TestRepositoryFailedEpochDropsStats(t *testing.T) {
	const pageSize = 8192
	fs := &brokenSegmentFS{FS: &MemFS{}}
	repo := NewRepository(fs, pageSize)
	data := bytes.Repeat([]byte{9}, pageSize)
	writeErr := repo.WritePage(1, 0, data, pageSize)
	sealErr := repo.EndEpoch(1)
	if writeErr == nil && sealErr == nil {
		t.Fatal("broken segment writes surfaced neither at WritePage nor at EndEpoch")
	}
	if st := repo.DedupStats(); st.PagesStored != 0 || st.BytesStored != 0 {
		t.Errorf("stats charged for a discarded epoch: %+v", st)
	}
}

// brokenSegmentFS serves segment files whose writes always fail.
type brokenSegmentFS struct {
	FS
}

type brokenFile struct{ io.WriteCloser }

func (brokenFile) Write([]byte) (int, error) {
	return 0, fmt.Errorf("injected write failure")
}

func (f *brokenSegmentFS) Create(name string) (io.WriteCloser, error) {
	wc, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".pages") {
		return brokenFile{wc}, nil
	}
	return wc, nil
}

// failingCreateFS fails Create for one specific name.
type failingCreateFS struct {
	FS
	failOn string
}

func (f *failingCreateFS) Create(name string) (io.WriteCloser, error) {
	if name == f.failOn {
		return nil, fmt.Errorf("injected create failure for %s", name)
	}
	return f.FS.Create(name)
}
