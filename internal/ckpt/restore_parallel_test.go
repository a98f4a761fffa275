package ckpt

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/util"
)

// buildTestChain seals epochs 1..epochs with overlapping dirty sets —
// repeated content (dedup refs when enabled), page overwrites (newest-wins
// folding), and fresh pages — returning the FS holding the chain.
func buildTestChain(t *testing.T, epochs, pageSize int, codec compress.Codec, dedup bool) *MemFS {
	t.Helper()
	fs := &MemFS{}
	r := NewRepository(fs, pageSize)
	r.SetCodec(codec)
	r.SetDedup(dedup)
	for e := uint64(1); e <= uint64(epochs); e++ {
		for p := 0; p < 8; p++ {
			data := make([]byte, pageSize)
			switch {
			case p%3 == 0:
				// Same content every epoch: dedup elides it as a ref.
				for i := range data {
					data[i] = byte(p + 1)
				}
			default:
				for i := range data {
					data[i] = byte(int(e)*31 + p + i)
				}
			}
			if err := r.WritePage(e, int(e)%4*8+p, data, pageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.EndEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// compactPrefix folds epochs [1, to] into a committed base so the chain
// exercises the base-first fold order.
func compactPrefix(t *testing.T, fs FS, to uint64, pageSize int, codec uint8) {
	t.Helper()
	ch, err := LoadChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for n < len(ch.Epochs) && ch.Epochs[n].Epoch <= to {
		n++
	}
	pages, err := oracleFold(fs, ch.Epochs[:n])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteBase(fs, 1, to, pageSize, &pages, codec); err != nil {
		t.Fatal(err)
	}
	ch, err = LoadChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	GCSuperseded(fs, ch)
}

func imagesEqual(a, b *Image) error {
	if a.Epoch != b.Epoch {
		return fmt.Errorf("epoch %d != %d", a.Epoch, b.Epoch)
	}
	if a.SegmentsRead != b.SegmentsRead {
		return fmt.Errorf("segments read %d != %d", a.SegmentsRead, b.SegmentsRead)
	}
	if a.Pages.Len() != b.Pages.Len() {
		return fmt.Errorf("page count %d != %d", a.Pages.Len(), b.Pages.Len())
	}
	for p, d := range a.Pages.All() {
		if got, ok := b.Pages.Get(p); !ok || !bytes.Equal(d, got) {
			return fmt.Errorf("page %d content differs", p)
		}
	}
	return nil
}

// Parallel restore must be bit-identical to the serial fold for every
// worker count, across dedup refs, compacted bases and codec on/off.
func TestRestoreParallelBitIdentity(t *testing.T) {
	const pageSize = 128
	for _, tc := range []struct {
		name  string
		codec compress.Codec
		dedup bool
		base  bool
	}{
		{"plain", compress.None, false, false},
		{"dedup", compress.None, true, false},
		{"flate", compress.Flate, false, false},
		{"flate-dedup-base", compress.Flate, true, true},
		{"dedup-base", compress.None, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := buildTestChain(t, 12, pageSize, tc.codec, tc.dedup)
			if tc.base {
				compactPrefix(t, fs, 6, pageSize, uint8(tc.codec))
			}
			want, err := RestoreWith(fs, RestoreOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 8; workers++ {
				got, err := RestoreWith(fs, RestoreOptions{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if err := imagesEqual(want, got); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
			}
		})
	}
}

// A corrupt interior segment must surface the same error (the first
// failing winner in chain order) at every worker count.
func TestRestoreParallelErrorMatchesSerial(t *testing.T) {
	const pageSize = 128
	fs := buildTestChain(t, 8, pageSize, compress.None, false)
	// Corrupt a winning record of epoch 6 (flip a byte past the header):
	// epochs 5 to 8 rewrite every page epochs 1 to 4 wrote.
	name := segmentName(6)
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	data[30] ^= 0xff
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, serialErr := RestoreWith(fs, RestoreOptions{Workers: 1})
	if serialErr == nil {
		t.Fatal("serial restore of corrupt chain succeeded")
	}
	for workers := 2; workers <= 8; workers += 2 {
		_, err := RestoreWith(fs, RestoreOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: restore of corrupt chain succeeded", workers)
		}
		if err.Error() != serialErr.Error() {
			t.Fatalf("workers=%d: error %q, serial %q", workers, err, serialErr)
		}
	}
}

// afterReturnFS fails the test on any FS call made once the restore under
// test has returned. Opens of every segment but the first are held until
// the first segment has been read and closed, and then for as long as the
// restore has not returned (bounded, so a restore that joins its readers
// first is not deadlocked): a restore that returns on the first bad segment
// while readers are still inside Open is caught red-handed.
type afterReturnFS struct {
	FS
	t        *testing.T
	first    string        // the segment that fails
	firstEnd chan struct{} // closed when the first segment's file is closed
	returned chan struct{} // closed when RestoreWith has returned
	open     sync.WaitGroup
}

func (fs *afterReturnFS) check(op string) {
	select {
	case <-fs.returned:
		fs.t.Errorf("%s after RestoreWith returned", op)
	default:
	}
}

func (fs *afterReturnFS) Open(name string) (io.ReadCloser, error) {
	fs.check("Open " + name)
	if strings.HasSuffix(name, ".pages") && name != fs.first {
		<-fs.firstEnd
		select {
		case <-fs.returned:
		case <-time.After(50 * time.Millisecond):
		}
	}
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	fs.open.Add(1)
	return &afterReturnFile{ReadCloser: f, fs: fs, name: name}, nil
}

type afterReturnFile struct {
	io.ReadCloser
	fs   *afterReturnFS
	name string
}

func (f *afterReturnFile) Read(p []byte) (int, error) {
	f.fs.check("Read " + f.name)
	return f.ReadCloser.Read(p)
}

func (f *afterReturnFile) Close() error {
	defer f.fs.open.Done()
	if f.name == f.fs.first {
		close(f.fs.firstEnd)
	}
	return f.ReadCloser.Close()
}

// A restore that fails must have joined its segment readers before it
// returns: the caller may unmount or delete what they read from.
func TestRestoreErrorLeavesNoReaderBehind(t *testing.T) {
	const pageSize = 128
	mem := buildTestChain(t, 8, pageSize, compress.None, false)
	// Epoch 5 is the oldest segment that owns winners.
	mem.files[segmentName(5)][30] ^= 0xff
	for _, workers := range []int{1, 4, 8} {
		fs := &afterReturnFS{FS: mem, t: t, first: segmentName(5),
			firstEnd: make(chan struct{}), returned: make(chan struct{})}
		_, err := RestoreWith(fs, RestoreOptions{Workers: workers})
		close(fs.returned)
		if err == nil || !strings.Contains(err.Error(), "epoch 5") {
			t.Fatalf("workers=%d: err = %v, want epoch 5's corruption", workers, err)
		}
		fs.open.Wait() // let a straggler run into check before the verdict
	}
}

// PageOr misses must return the shared zero page without allocating.
func TestAllocGatePageOrMiss(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race CI step")
	}
	im := &Image{PageSize: 4096}
	im.PageOr(1) // warm the shared zero page
	allocs := testing.AllocsPerRun(100, func() {
		if len(im.PageOr(2)) != 4096 {
			t.Fatal("short zero page")
		}
	})
	if allocs != 0 {
		t.Fatalf("PageOr miss allocates %v times per call, want 0", allocs)
	}
}

// The zero page is shared: both misses see the same backing array and it
// must stay all-zero.
func TestPageOrSharedZero(t *testing.T) {
	im := &Image{PageSize: 64}
	a := im.PageOr(1)
	b := im.PageOr(2)
	if &a[0] != &b[0] {
		t.Error("PageOr misses should share one zero page")
	}
	for i, v := range a {
		if v != 0 {
			t.Fatalf("zero page dirty at %d: %d", i, v)
		}
	}
}
