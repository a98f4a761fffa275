package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/obs"
	"repro/internal/util"
)

// TestAllocGateWritePageDedupFastPath gates the repository's steady-state
// dedup path at zero allocations: once the per-epoch bookkeeping (manifest
// Refs, pending map) has been grown by earlier epochs and recycled, a page
// write whose content matches the newest chain entry must not touch the
// heap — it hashes inline, consults the index and appends a Ref into
// pre-grown storage.
func TestAllocGateWritePageDedupFastPath(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("race mode bypasses sync.Pool; allocation gates do not apply")
	}
	const n = 2048
	const pageSize = 4096
	fs := &MemFS{}
	repo := NewRepository(fs, pageSize)
	// The gate holds with the write path fully instrumented — the dedup
	// fast path records counters, a latency sample and a trace event, none
	// of which may touch the heap.
	start := time.Now()
	met := obs.New(func() time.Duration { return time.Since(start) })
	met.Journal = obs.NewJournal(obs.DefaultJournalDepth)
	repo.SetMetrics(met)
	page := bytes.Repeat([]byte{7}, pageSize)
	write := func(epoch uint64, p int) {
		t.Helper()
		if err := repo.WritePage(epoch, p, page, pageSize); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 1 stores page 0 physically; every later identical write
	// dedups against it. Epoch 2 is pure dedup and grows the Ref/pending
	// storage that epoch 3 then reuses.
	for e := uint64(1); e <= 2; e++ {
		for p := 0; p < n; p++ {
			write(e, p)
		}
		if err := repo.EndEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	p := 0
	allocs := testing.AllocsPerRun(n/2, func() {
		write(3, p)
		p++
	})
	if err := repo.EndEpoch(3); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("dedup fast path allocated %.2f times per run, want 0", allocs)
	}
	// Epoch 1 stores every page physically (dedup is per page against that
	// page's newest chain entry); epochs 2 and 3 must be pure dedup.
	st := repo.DedupStats()
	if want := n + n/2 + 1; st.PagesDeduped != want {
		t.Fatalf("%d pages deduped, want %d (test drove the wrong path)", st.PagesDeduped, want)
	}
	if got := met.DedupHits.Load(); got != uint64(st.PagesDeduped) {
		t.Fatalf("metrics counted %d dedup hits, repository counted %d", got, st.PagesDeduped)
	}
}

// discardFS publishes nothing and allocates nothing per write, so the gate
// below measures the repository and not the in-memory store's regrowth.
type discardFS struct{ MemFS }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Close() error                { return nil }

func (*discardFS) Create(string) (io.WriteCloser, error) { return discardFile{}, nil }

// TestAllocGateWritePageStored gates the other half of the write path: a
// page that is stored, not deduplicated, costs no allocation in steady
// state either, raw or compressed — the record is hashed inline, encoded
// into a pooled buffer the call gives back, and copied into the one segment
// buffer; the manifest arrays and the pending map were grown by earlier
// epochs.
func TestAllocGateWritePageStored(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("race mode bypasses sync.Pool; allocation gates do not apply")
	}
	for _, codec := range []compress.Codec{compress.None, compress.Flate} {
		t.Run(fmt.Sprintf("codec%d", codec), func(t *testing.T) {
			const n = 1024
			const pageSize = 4096
			repo := NewRepository(&discardFS{}, pageSize)
			repo.SetCodec(codec)
			start := time.Now()
			met := obs.New(func() time.Duration { return time.Since(start) })
			met.Journal = obs.NewJournal(obs.DefaultJournalDepth)
			repo.SetMetrics(met)
			page := bytes.Repeat([]byte("stored page "), pageSize/12+1)[:pageSize]
			var version uint64
			write := func(epoch uint64, p int) {
				t.Helper()
				version++ // every write is new content: nothing dedups
				binary.LittleEndian.PutUint64(page, version)
				if err := repo.WritePage(epoch, p, page, pageSize); err != nil {
					t.Fatal(err)
				}
			}
			for e := uint64(1); e <= 2; e++ {
				for p := 0; p < n; p++ {
					write(e, p)
				}
				if err := repo.EndEpoch(e); err != nil {
					t.Fatal(err)
				}
			}
			p := 0
			allocs := testing.AllocsPerRun(n-1, func() {
				write(3, p)
				p++
			})
			if err := repo.EndEpoch(3); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("stored page allocated %.2f times per run, want 0", allocs)
			}
			if st := repo.DedupStats(); st.PagesStored != 3*n || st.PagesDeduped != 0 {
				t.Fatalf("stats %+v: the test drove the wrong path", st)
			}
		})
	}
}

// TestAllocGateRestore guards the one property the chain fold owes its
// callers: it allocates nothing per page beyond the record's own payload
// (each payload is its own buffer so that superseded pages stay
// collectable). On a 16-epoch x 256-page uncompressed chain in which every
// epoch rewrites every page that is 4096 records; whatever the fold
// allocates on top is per segment (file, name, the set's two slices) and
// must stay a small constant: measured 7.8 per segment with one reader and
// 7.9 with four (16.49 and 16.50 per image page; 8.9 and 9.1 while
// MemFS.Open still copied the file). The map-based fold this
// replaced, measured the same way (a whole restore minus the 2.35 per page
// of LoadChain's manifest decoding on either side), cost 9.8 and 13.0 per
// segment (16.61 and 16.81 per image page). A single allocation per page
// would add 256 per segment, so the bound has room for a few more per
// file open without losing sight of that.
func TestAllocGateRestore(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race CI step")
	}
	const epochs, pages, pageSize = 16, 256, 4096
	fs := &MemFS{}
	repo := NewRepository(fs, pageSize)
	repo.SetDedup(false)
	buf := make([]byte, pageSize)
	for e := uint64(1); e <= epochs; e++ {
		for p := 0; p < pages; p++ {
			buf[0], buf[1] = byte(e), byte(p)
			if err := repo.WritePage(e, p, buf, pageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := repo.EndEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := LoadChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		allocs := testing.AllocsPerRun(5, func() {
			image, segments, err := FoldSegments(fs, ch.Live(), workers)
			if err != nil || segments != epochs || image.Len() != pages {
				t.Fatalf("fold: %v, %d segments, %d pages", err, segments, image.Len())
			}
			if got := pageAt(&image, pages-1); got[0] != epochs || got[1] != pages-1 {
				t.Fatalf("page %d restored as %v", pages-1, got[:2])
			}
		})
		perSegment := (allocs - epochs*pages) / epochs
		t.Logf("workers=%d: %.0f allocations for %d records, %.1f more per segment (%.2f per image page)",
			workers, allocs, epochs*pages, perSegment, allocs/pages)
		if perSegment > 12 {
			t.Errorf("workers=%d: the fold allocates %.1f times per segment beyond its records, want <= 12", workers, perSegment)
		}
	}
}

// TestEpochScratchRecyclingKeepsChainsCorrect: recycling the manifest
// slices and pending map across epochs must not leak one epoch's
// bookkeeping into the next — distinct content per epoch restores bit for
// bit.
func TestEpochScratchRecyclingKeepsChainsCorrect(t *testing.T) {
	const pages = 16
	const pageSize = 64
	fs := &MemFS{}
	repo := NewRepository(fs, pageSize)
	for e := uint64(1); e <= 5; e++ {
		for p := 0; p < pages; p++ {
			content := bytes.Repeat([]byte{byte(e), byte(p)}, pageSize/2)
			if p%3 == 0 {
				content = bytes.Repeat([]byte{0xee}, pageSize) // dedups after epoch 1
			}
			if err := repo.WritePage(e, p, content, pageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := repo.EndEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	im, err := Restore(fs)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 5 {
		t.Fatalf("restored epoch %d, want 5", im.Epoch)
	}
	for p := 0; p < pages; p++ {
		want := bytes.Repeat([]byte{5, byte(p)}, pageSize/2)
		if p%3 == 0 {
			want = bytes.Repeat([]byte{0xee}, pageSize)
		}
		if got := im.PageOr(p); !bytes.Equal(got, want) {
			t.Errorf("page %d: restored %x, want %x", p, got[:4], want[:4])
		}
	}
}
