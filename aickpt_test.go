package aickpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
)

func TestRuntimeEndToEnd(t *testing.T) {
	for _, strategy := range []Strategy{Adaptive, NoPattern, Sync} {
		t.Run(strategy.String(), func(t *testing.T) {
			dir := t.TempDir()
			rt, err := New(Options{Dir: dir, PageSize: 256, Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			r := rt.MallocProtected(16 * 256)
			payload := bytes.Repeat([]byte{0xEE}, r.Size())
			r.Write(0, payload)
			rt.Checkpoint()
			// Mutate after the checkpoint; epoch 1 must keep the old image.
			r.StoreByte(0, 0x11)
			rt.WaitIdle()
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}

			im, err := Restore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if im.Epoch != 1 {
				t.Fatalf("restored epoch = %d", im.Epoch)
			}
			first, count := r.Pages()
			var restored []byte
			for p := first; p < first+count; p++ {
				restored = append(restored, im.Page(p)...)
			}
			if !bytes.Equal(restored[:r.Size()], payload) {
				t.Error("restored image lost the pre-checkpoint content")
			}
		})
	}
}

func TestRuntimeRestartFlow(t *testing.T) {
	dir := t.TempDir()
	const size = 8 * 512

	// First life: run, checkpoint twice, "crash".
	rt, err := New(Options{Dir: dir, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MallocProtected(size)
	state := bytes.Repeat([]byte{1}, size)
	r.Write(0, state)
	rt.Checkpoint()
	rt.WaitIdle()
	for i := 0; i < size; i += 512 {
		r.StoreByte(i, 2)
		state[i] = 2
	}
	rt.Checkpoint()
	rt.WaitIdle()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: restore into an identically laid-out runtime.
	rt2, err := New(Options{Dir: dir, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	r2 := rt2.MallocProtected(size)
	im, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.LoadImage(im, r2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	r2.Read(0, got)
	if !bytes.Equal(got, state) {
		t.Fatal("restart image differs from pre-crash state")
	}
	// Keep computing and checkpointing in the same repository.
	r2.StoreByte(7, 9)
	rt2.Checkpoint()
	rt2.WaitIdle()
	if err := rt2.Err(); err != nil {
		t.Fatal(err)
	}
	im2, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if im2.Epoch != 3 {
		t.Fatalf("epoch after restart checkpoint = %d, want 3", im2.Epoch)
	}
	if im2.Page(0)[7] != 9 {
		t.Error("post-restart write missing from repository")
	}
}

func TestRuntimeStatsAndIncrementality(t *testing.T) {
	dir := t.TempDir()
	rt, err := New(Options{Dir: dir, PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	r := rt.MallocProtected(10 * 128)
	r.Write(0, make([]byte, 10*128))
	rt.Checkpoint()
	rt.WaitIdle()
	r.StoreByte(5*128, 1)
	rt.Checkpoint()
	rt.WaitIdle()
	st := rt.Stats()
	if len(st) != 2 {
		t.Fatalf("stats = %d entries", len(st))
	}
	if st[0].PagesCommitted != 10 || st[1].PagesCommitted != 1 {
		t.Errorf("committed = %d,%d; want 10,1", st[0].PagesCommitted, st[1].PagesCommitted)
	}
	if st[1].BytesCommitted != 128 {
		t.Errorf("bytes = %d", st[1].BytesCommitted)
	}
}

func TestTransparentAllocator(t *testing.T) {
	dir := t.TempDir()
	rt, err := New(Options{Dir: dir, PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	alloc := rt.TransparentAllocator()
	a := alloc.Alloc(128)
	b := alloc.Calloc(2, 128)
	a.StoreByte(0, 1)
	b.StoreByte(0, 2)
	rt.Checkpoint()
	rt.WaitIdle()
	st := rt.Stats()
	if st[0].PagesCommitted != 2 {
		t.Errorf("committed = %d, want 2 (one touched page per allocation)", st[0].PagesCommitted)
	}
	alloc.Free(a)
	b.StoreByte(128, 3)
	rt.Checkpoint()
	rt.WaitIdle()
	st = rt.Stats()
	if st[1].PagesCommitted != 1 {
		t.Errorf("epoch2 committed = %d, want 1", st[1].PagesCommitted)
	}
}

func TestInspectReportsHealth(t *testing.T) {
	dir := t.TempDir()
	rt, err := New(Options{Dir: dir, PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MallocProtected(4 * 128)
	r.Write(0, bytes.Repeat([]byte{5}, 4*128))
	rt.Checkpoint()
	rt.WaitIdle()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	health, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(health) != 1 || health[0].Status != HealthOK || health[0].PageCount != 4 || health[0].TotalBytes == 0 {
		t.Fatalf("health = %+v", health)
	}
	// Corrupt the segment; Verify must notice.
	seg := filepath.Join(dir, fmt.Sprintf("epoch-%08d.pages", 1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[30] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	health, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(health) != 1 || health[0].Status != HealthSegmentCorrupt || !health[0].Damaged {
		t.Errorf("Verify missed corruption: %+v", health)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("neither Dir nor Store rejected")
	}
	if _, err := New(Options{Dir: "x", Store: nullStore{}}); err == nil {
		t.Error("both Dir and Store rejected")
	}
	if _, err := New(Options{Dir: "x", PageSize: 4}); err == nil {
		t.Error("tiny page size accepted")
	}
	if _, err := New(Options{Dir: "x", CowBuffer: -1}); err == nil {
		t.Error("negative CowBuffer accepted")
	}
	if _, err := New(Options{Dir: t.TempDir(), Strategy: 7}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := New(Options{Store: nullStore{}, Compression: 9}); err == nil {
		t.Error("unknown compression accepted with a custom store")
	}
}

type nullStore struct{}

func (nullStore) WritePage(uint64, int, []byte, int) error { return nil }
func (nullStore) EndEpoch(uint64) error                    { return nil }

func TestCustomStoreAndDisabledCow(t *testing.T) {
	rt, err := New(Options{Store: nullStore{}, PageSize: 128, DisableCow: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	r := rt.MallocProtected(256)
	r.StoreByte(0, 1)
	rt.Checkpoint()
	rt.WaitIdle()
	if rt.Err() != nil {
		t.Fatal(rt.Err())
	}
	st := rt.Stats()
	if len(st) != 1 || st[0].PagesCommitted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWriteStatsCSVAndSummarize(t *testing.T) {
	stats := []EpochStats{
		{Epoch: 1, PagesCommitted: 10, BytesCommitted: 40960, Waits: 2, Cows: 3, Avoided: 4, After: 1},
		{Epoch: 2, PagesCommitted: 5, BytesCommitted: 20480, Waits: 1},
	}
	var sb strings.Builder
	if err := WriteStatsCSV(&sb, stats); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "1,10,40960,2,3,4,1,") {
		t.Errorf("row 1 = %q", lines[1])
	}
	sum := Summarize(stats)
	if sum.Checkpoints != 2 || sum.PagesCommitted != 15 || sum.Waits != 3 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.BytesCommitted != 61440 {
		t.Errorf("bytes = %d", sum.BytesCommitted)
	}
}

// TestConcurrentWriters exercises the real-time runtime with several
// application goroutines mutating disjoint regions while checkpoints run:
// the thread-safety contract of the fault path and the committer.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	rt, err := New(Options{Dir: dir, PageSize: 256, CowBuffer: 16 * 256})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	regions := make([]*Region, writers)
	for i := range regions {
		regions[i] = rt.MallocProtected(32 * 256)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i, r := range regions {
		wg.Add(1)
		go func(i int, r *Region) {
			defer wg.Done()
			buf := make([]byte, 64)
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range buf {
					buf[j] = byte(round + i)
				}
				r.Write((round%120)*64, buf)
			}
		}(i, r)
	}
	for c := 0; c < 5; c++ {
		time.Sleep(2 * time.Millisecond)
		rt.Checkpoint()
	}
	rt.WaitIdle()
	close(stop)
	wg.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// The repository must hold a consistent restorable chain.
	if _, err := Restore(dir); err != nil {
		t.Fatal(err)
	}
}

// Options.CommitWorkers plumbs through to the commit pipeline: explicit
// worker counts (including the serial 1) produce restorable chains whose
// final image matches the serial baseline, a negative count is rejected,
// and the pipeline composes with a multi-level tier hierarchy.
func TestCommitWorkersOption(t *testing.T) {
	if _, err := New(Options{Dir: t.TempDir(), CommitWorkers: -1}); err == nil {
		t.Fatal("negative CommitWorkers accepted")
	}

	const pageSize, pages = 256, 24
	run := func(opts Options) *Image {
		t.Helper()
		opts.PageSize = pageSize
		rt, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		r := rt.MallocProtected(pages * pageSize)
		for e := byte(1); e <= 3; e++ {
			for p := 0; p < pages; p++ {
				if (p+int(e))%2 == 0 {
					r.StoreByte(p*pageSize, e*7+byte(p))
				}
			}
			rt.Checkpoint()
			// Interfere with the in-flight flush.
			r.StoreByte(0, 0xF0+e)
		}
		rt.WaitIdle()
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		var im *Image
		if rt.Hierarchy() != nil {
			hi, _, err := rt.Hierarchy().Restore()
			if err != nil {
				t.Fatal(err)
			}
			im = hi
		} else {
			var err error
			im, err = Restore(opts.Dir)
			if err != nil {
				t.Fatal(err)
			}
		}
		if im.Epoch != 3 {
			t.Fatalf("restored epoch %d, want 3", im.Epoch)
		}
		return im
	}
	baseline := run(Options{Dir: t.TempDir(), CommitWorkers: 1})
	for _, workers := range []int{2, 4} {
		im := run(Options{Dir: t.TempDir(), CommitWorkers: workers})
		for p := 0; p < pages; p++ {
			if !bytes.Equal(im.Page(p), baseline.Page(p)) {
				t.Fatalf("workers=%d: restored page %d differs from serial baseline", workers, p)
			}
		}
	}
	// Four workers streaming into a 2-tier hierarchy (L1 + erasure peers).
	im := run(Options{
		CommitWorkers: 4,
		Tiers: []TierSpec{
			{Kind: TierLocal},
			{Kind: TierPeer, DataShards: 2, ParityShards: 1},
		},
	})
	for p := 0; p < pages; p++ {
		if !bytes.Equal(im.Page(p), baseline.Page(p)) {
			t.Fatalf("tiers: restored page %d differs from serial baseline", p)
		}
	}
}

func TestCompressedRuntimeRoundTrip(t *testing.T) {
	for _, comp := range []Compression{CompressionZero, CompressionFlate} {
		dir := t.TempDir()
		rt, err := New(Options{Dir: dir, PageSize: 512, Compression: comp})
		if err != nil {
			t.Fatal(err)
		}
		r := rt.MallocProtected(8 * 512)
		// Half zero pages, half repetitive content.
		pattern := bytes.Repeat([]byte{0xAB, 0xCD}, 256)
		for p := 0; p < 4; p++ {
			r.Write(p*512, pattern)
		}
		r.StoreByte(5*512, 0) // dirty a zero page too
		rt.Checkpoint()
		rt.WaitIdle()
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		im, err := Restore(dir)
		if err != nil {
			t.Fatalf("compression %d: %v", comp, err)
		}
		if !bytes.Equal(im.Page(0), pattern) {
			t.Errorf("compression %d: content mismatch", comp)
		}
		if !bytes.Equal(im.Page(5), make([]byte, 512)) {
			t.Errorf("compression %d: zero page mismatch", comp)
		}
	}
}

// runChainWorkload drives a runtime through n checkpoints over a working
// set where half the dirtied pages are rewritten with identical content
// (the dedup target), and returns the final memory snapshot.
func runChainWorkload(t *testing.T, rt *Runtime, pages, pageSize, checkpoints int) []byte {
	t.Helper()
	state := rt.MallocProtected(pages * pageSize)
	buf := make([]byte, pageSize)
	for step := 1; step <= checkpoints; step++ {
		for i := 0; i < pages/2; i++ {
			p := (step + i) % pages
			stamp := step
			if p%2 == 1 {
				stamp = 0 // identical content on every rewrite
			}
			for j := range buf {
				buf[j] = byte(p*31 + stamp*7 + j%11)
			}
			state.Write(p*pageSize, buf)
		}
		rt.Checkpoint()
	}
	rt.WaitIdle()
	return append([]byte(nil), state.Bytes()...)
}

// winnerSegments counts the live chain entries in dir that hold the newest
// copy of at least one page: the segments a restore opens.
func winnerSegments(t *testing.T, dir string) int {
	t.Helper()
	fs, err := ckpt.OpenOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ckpt.LoadChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	live := ch.Live()
	seen := map[int]bool{}
	n := 0
	for i := len(live) - 1; i >= 0; i-- {
		owns := false
		for _, p := range live[i].Pages {
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

// TestCompactionEndToEnd proves the acceptance criterion on the public
// API: with compaction (depth d) a run of N >> d epochs restores by
// reading at most d segments, bit-identically to a compaction-off run of
// the same workload, and a pre-compaction (v1-style) chain still restores
// unchanged after a runtime with compaction opens it.
func TestCompactionEndToEnd(t *testing.T) {
	const pages, pageSize, checkpoints, depth = 16, 256, 24, 4

	run := func(opts Options) (string, []byte, StorageStats) {
		dir := t.TempDir()
		opts.Dir, opts.PageSize = dir, pageSize
		rt, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		snapshot := runChainWorkload(t, rt, pages, pageSize, checkpoints)
		if err := rt.Close(); err != nil { // Close drains the compactor's pending kick
			t.Fatal(err)
		}
		return dir, snapshot, rt.StorageStats()
	}

	plainDir, plainSnap, plainStats := run(Options{DisableDedup: true})
	compDir, compSnap, compStats := run(Options{Compaction: CompactionPolicy{MaxChainDepth: depth}})

	if !bytes.Equal(plainSnap, compSnap) {
		t.Fatal("workloads diverged")
	}
	if plainStats.PagesDeduped != 0 {
		t.Fatalf("dedup ran while disabled: %+v", plainStats)
	}
	if compStats.PagesDeduped == 0 {
		t.Fatalf("no dedup on identical rewrites: %+v", compStats)
	}
	if compStats.Compactions == 0 || compStats.EpochsFolded == 0 || compStats.BytesReclaimed == 0 {
		t.Fatalf("background compactor idle: %+v", compStats)
	}

	imPlain, err := Restore(plainDir)
	if err != nil {
		t.Fatal(err)
	}
	imComp, err := Restore(compDir)
	if err != nil {
		t.Fatal(err)
	}
	if imPlain.Epoch != uint64(checkpoints) || imComp.Epoch != imPlain.Epoch {
		t.Fatalf("restart points: plain %d, compacted %d", imPlain.Epoch, imComp.Epoch)
	}
	// The baseline opens every segment that holds the newest copy of a
	// page, whatever the chain length; no more.
	if want := winnerSegments(t, plainDir); imPlain.SegmentsRead() != want {
		t.Fatalf("baseline read %d segments, %d own a winner", imPlain.SegmentsRead(), want)
	}
	if imComp.SegmentsRead() > depth {
		t.Fatalf("compacted restore read %d segments, want <= %d", imComp.SegmentsRead(), depth)
	}
	for _, p := range imPlain.PageIDs() {
		if !bytes.Equal(imPlain.Page(p), imComp.Page(p)) {
			t.Fatalf("page %d differs between compacted and uncompacted restore", p)
		}
	}

	// The pre-compaction chain keeps restoring unchanged when a runtime
	// with compaction enabled reopens and extends it.
	rt, err := New(Options{Dir: plainDir, PageSize: pageSize, Compaction: CompactionPolicy{MaxChainDepth: depth}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacted || res.LiveSegments != 1 {
		t.Fatalf("CompactNow on v1-style chain: %+v", res)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	imAfter, err := Restore(plainDir)
	if err != nil {
		t.Fatal(err)
	}
	if imAfter.Epoch != imPlain.Epoch || imAfter.SegmentsRead() != 1 {
		t.Fatalf("post-compaction restore: epoch %d, segments %d", imAfter.Epoch, imAfter.SegmentsRead())
	}
	for _, p := range imPlain.PageIDs() {
		if !bytes.Equal(imPlain.Page(p), imAfter.Page(p)) {
			t.Fatalf("page %d changed after compacting the old chain", p)
		}
	}
}

// TestCompactionRestartContinuesNumbering restarts over a fully compacted
// repository: the new runtime must continue epoch numbering after the
// base, not restart below it.
func TestCompactionRestartContinuesNumbering(t *testing.T) {
	const pageSize = 256
	dir := t.TempDir()
	rt, err := New(Options{Dir: dir, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	runChainWorkload(t, rt, 8, pageSize, 5)
	if res, err := rt.CompactNow(); err != nil || !res.Compacted {
		t.Fatalf("CompactNow: %+v %v", res, err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, err := New(Options{Dir: dir, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	state := rt2.MallocProtected(8 * pageSize)
	state.StoreByte(0, 0x5A)
	rt2.Checkpoint()
	rt2.WaitIdle()
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
	im, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if im.Epoch != 6 {
		t.Fatalf("restart point = %d, want 6 (numbering continues past the base)", im.Epoch)
	}
	if im.Page(0)[0] != 0x5A {
		t.Fatal("post-restart write lost")
	}
}

func TestCompactionWithTiers(t *testing.T) {
	const pageSize = 256
	dir := t.TempDir()
	rt, err := New(Options{
		PageSize: pageSize,
		Tiers: []TierSpec{
			{Kind: TierLocal, Dir: dir},
			{Kind: TierPFS},
		},
		Compaction: CompactionPolicy{MaxChainDepth: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := runChainWorkload(t, rt, 8, pageSize, 12)
	rt.Hierarchy().WaitDrained()
	res, err := rt.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveSegments != 1 {
		t.Fatalf("CompactNow: %+v", res)
	}
	// The tier manifests now show the base and the superseded epochs.
	var sawBase bool
	for _, m := range rt.Hierarchy().Manifests() {
		if m.Base != nil {
			sawBase = true
		}
	}
	if !sawBase {
		t.Fatal("no base in tier manifests after compaction")
	}
	im, _, err := rt.Hierarchy().Restore()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		if !bytes.Equal(im.Page(p), snapshot[p*pageSize:(p+1)*pageSize]) {
			t.Fatalf("page %d differs after tiered compaction", p)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionRejectsCustomStore(t *testing.T) {
	_, err := New(Options{Store: nullStore{}, Compaction: CompactionPolicy{MaxChainDepth: 4}})
	if err == nil {
		t.Fatal("Compaction with a custom Store accepted")
	}
}
