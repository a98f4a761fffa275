package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/util"
)

const testPageSize = 64

// newRealManager builds a real-time manager over a MemFS repository.
func newRealManager(t *testing.T, strategy Strategy, cowSlots int) (*Manager, *pagemem.Space, *ckpt.MemFS) {
	t.Helper()
	fs := &ckpt.MemFS{}
	space := pagemem.NewSpace(testPageSize)
	m := NewManager(Config{
		Env:      sim.NewRealEnv(),
		Space:    space,
		Store:    ckpt.NewRepository(fs, testPageSize),
		Strategy: strategy,
		CowSlots: cowSlots,
		Name:     "test",
	})
	t.Cleanup(m.Close)
	return m, space, fs
}

func fill(r *pagemem.Region, b byte) {
	buf := make([]byte, r.Size())
	for i := range buf {
		buf[i] = b
	}
	r.Write(0, buf)
}

func restoreAndCompare(t *testing.T, fs *ckpt.MemFS, r *pagemem.Region, want []byte, label string) {
	t.Helper()
	im, err := ckpt.Restore(fs)
	if err != nil {
		t.Fatalf("%s: restore: %v", label, err)
	}
	first, count := r.Pages()
	got := make([]byte, 0, count*testPageSize)
	for p := first; p < first+count; p++ {
		got = append(got, im.PageOr(p)...)
	}
	got = got[:len(want)]
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: restored image differs from memory at checkpoint time", label)
	}
}

func TestCheckpointRestoreMatchesMemoryAtRequestTime(t *testing.T) {
	for _, strategy := range []Strategy{Adaptive, NoPattern, Sync} {
		for _, slots := range []int{0, 2, 1 << 20} {
			t.Run(fmt.Sprintf("%v-slots%d", strategy, slots), func(t *testing.T) {
				m, space, fs := newRealManager(t, strategy, slots)
				r := space.Alloc(8*testPageSize, false)
				fill(r, 0xA1)
				snapshotA := append([]byte(nil), r.Bytes()...)
				m.Checkpoint()
				// Overwrite everything while the flush may still be running:
				// the restore of epoch 1 must still see snapshot A.
				fill(r, 0xB2)
				m.WaitIdle()
				if err := m.Err(); err != nil {
					t.Fatal(err)
				}
				restoreAndCompare(t, fs, r, snapshotA, "epoch1")

				snapshotB := append([]byte(nil), r.Bytes()...)
				m.Checkpoint()
				fill(r, 0xC3)
				m.WaitIdle()
				restoreAndCompare(t, fs, r, snapshotB, "epoch2")
			})
		}
	}
}

func TestIncrementalOnlyDirtyPagesCommitted(t *testing.T) {
	m, space, _ := newRealManager(t, Adaptive, 4)
	r := space.Alloc(16*testPageSize, false)
	fill(r, 1)
	m.Checkpoint()
	m.WaitIdle()
	// Touch only pages 3 and 9.
	r.StoreByte(3*testPageSize, 7)
	r.StoreByte(9*testPageSize+5, 7)
	m.Checkpoint()
	m.WaitIdle()
	stats := m.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats len = %d", len(stats))
	}
	if stats[0].PagesCommitted != 16 {
		t.Errorf("epoch1 committed %d pages, want 16 (full)", stats[0].PagesCommitted)
	}
	if stats[1].PagesCommitted != 2 {
		t.Errorf("epoch2 committed %d pages, want 2 (incremental)", stats[1].PagesCommitted)
	}
}

func TestUntouchedEpochCommitsNothing(t *testing.T) {
	m, space, fs := newRealManager(t, Adaptive, 4)
	r := space.Alloc(4*testPageSize, false)
	fill(r, 9)
	m.Checkpoint()
	m.WaitIdle()
	m.Checkpoint() // nothing dirtied in between
	m.WaitIdle()
	stats := m.Stats()
	if stats[1].PagesCommitted != 0 {
		t.Errorf("empty epoch committed %d pages", stats[1].PagesCommitted)
	}
	// Both epochs sealed; restore still works.
	restoreAndCompare(t, fs, r, r.Bytes(), "after empty epoch")
}

func TestAccessTypesVirtualDeterministic(t *testing.T) {
	// Virtual-time scenario with a 1-page-per-100ms disk and 8 dirty pages.
	k := sim.NewKernel()
	space := pagemem.NewSpace(testPageSize)
	link := netsim.NewLink(k, netsim.LinkConfig{
		Name:        "disk",
		BytesPerSec: 10 * testPageSize, // 100ms per page
	})
	trace := &tracingStore{next: storage.NewSimDisk(link)}
	m := NewManager(Config{
		Env: k, Space: space, Store: trace,
		Strategy: Adaptive, CowSlots: 1, Name: "vt",
	})
	r := space.Alloc(8*testPageSize, true)
	var waits, cows, avoided, after int
	k.Go("app", func() {
		for i := 0; i < 8; i++ {
			r.Touch(i)
		}
		m.Checkpoint() // all 8 pages scheduled; flush takes 800ms
		// t=0: page 7 is scheduled, slot free -> COW.
		r.Touch(7)
		// t=0: page 6 scheduled, no slots left -> WAIT (committed fast
		// thanks to the waited-page priority).
		r.Touch(6)
		// Flush order: 6 (waited), 7 (live COW), then history order.
		// Wait until page 0's commit must have happened (top of class
		// order: all pages were AFTER in epoch 0, index order 0,1,2,...).
		k.Sleep(350 * time.Millisecond) // t≈550ms
		r.Touch(0)                      // committed at 300ms -> AVOIDED
		m.WaitIdle()                    // flush done at 800ms
		r.Touch(5)                      // -> AFTER
		stats := m.Stats()
		cur := stats[len(stats)-1]
		waits, cows, avoided, after = cur.Waits, cur.Cows, cur.Avoided, cur.After
		m.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if waits != 1 || cows != 1 || avoided != 1 || after != 1 {
		t.Errorf("access types = W%d C%d A%d F%d, want 1 each", waits, cows, avoided, after)
	}
	// Verify the adaptive flush order: waited page 6 first, then COW page 7.
	var epoch1 []int
	for _, c := range trace.Commits() {
		if c.Epoch == 1 {
			epoch1 = append(epoch1, c.Page)
		}
	}
	if len(epoch1) != 8 || epoch1[0] != 6 || epoch1[1] != 7 {
		t.Errorf("epoch1 commit order = %v, want [6 7 ...]", epoch1)
	}
}

func TestNoPatternCommitsAscending(t *testing.T) {
	k := sim.NewKernel()
	space := pagemem.NewSpace(testPageSize)
	link := netsim.NewLink(k, netsim.LinkConfig{Name: "disk", BytesPerSec: 10 * testPageSize})
	trace := &tracingStore{next: storage.NewSimDisk(link)}
	m := NewManager(Config{Env: k, Space: space, Store: trace, Strategy: NoPattern, Name: "np"})
	r := space.Alloc(6*testPageSize, true)
	k.Go("app", func() {
		// Touch in descending order; no-pattern must still flush ascending.
		for i := 5; i >= 0; i-- {
			r.Touch(i)
		}
		m.Checkpoint()
		m.WaitIdle()
		m.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var pages []int
	for _, c := range trace.Commits() {
		pages = append(pages, c.Page)
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if fmt.Sprint(pages) != fmt.Sprint(want) {
		t.Errorf("commit order = %v, want %v", pages, want)
	}
}

func TestAdaptiveUsesHistoryOrder(t *testing.T) {
	// Epoch 1: pages are touched in a specific order with specific
	// interference; epoch 2's flush must follow WAIT > COW > AVOIDED >
	// AFTER, each by earliest access.
	k := sim.NewKernel()
	space := pagemem.NewSpace(testPageSize)
	link := netsim.NewLink(k, netsim.LinkConfig{Name: "disk", BytesPerSec: 10 * testPageSize})
	trace := &tracingStore{next: storage.NewSimDisk(link)}
	m := NewManager(Config{Env: k, Space: space, Store: trace, Strategy: Adaptive, CowSlots: 1, Name: "hist"})
	r := space.Alloc(6*testPageSize, true)
	k.Go("app", func() {
		for i := 0; i < 6; i++ {
			r.Touch(i)
		}
		m.Checkpoint() // epoch 1 flushes all 6 (100ms each, 600ms total)
		// Interference pattern during epoch 1's flush:
		r.Touch(4) // scheduled, slot free -> COW
		r.Touch(2) // scheduled, no slot -> WAIT
		k.Sleep(450 * time.Millisecond)
		// Commit order so far: 2 (waited), 4 (cow), 0, 1 (history: none,
		// ascending) => by t=450ms pages 2,4,0,1 committed; 3,5 remain.
		r.Touch(0) // processed, in progress -> AVOIDED
		m.WaitIdle()
		r.Touch(3) // -> AFTER
		r.Touch(1) // -> AFTER (later index)
		// All six pages are dirty again? Only 4,2,0,3,1 were touched.
		r.Touch(5)     // -> AFTER (last)
		m.Checkpoint() // epoch 2
		m.WaitIdle()
		m.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var epoch2 []int
	for _, c := range trace.Commits() {
		if c.Epoch == 2 {
			epoch2 = append(epoch2, c.Page)
		}
	}
	// Expected: WAIT class: page 2; COW class: page 4; AVOIDED: page 0;
	// AFTER by index: 3, 1, 5.
	want := []int{2, 4, 0, 3, 1, 5}
	if fmt.Sprint(epoch2) != fmt.Sprint(want) {
		t.Errorf("epoch2 commit order = %v, want %v", epoch2, want)
	}
}

func TestWaitedPageJumpsQueue(t *testing.T) {
	k := sim.NewKernel()
	space := pagemem.NewSpace(testPageSize)
	link := netsim.NewLink(k, netsim.LinkConfig{Name: "disk", BytesPerSec: 10 * testPageSize})
	trace := &tracingStore{next: storage.NewSimDisk(link)}
	m := NewManager(Config{Env: k, Space: space, Store: trace, Strategy: Adaptive, CowSlots: 0, Name: "wp"})
	r := space.Alloc(8*testPageSize, true)
	var waitTime time.Duration
	k.Go("app", func() {
		for i := 0; i < 8; i++ {
			r.Touch(i)
		}
		m.Checkpoint()
		start := k.Now()
		r.Touch(5) // no COW slots: must wait, but jumps to front
		waitTime = k.Now() - start
		m.WaitIdle()
		m.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var pages []int
	for _, c := range trace.Commits() {
		pages = append(pages, c.Page)
	}
	if pages[0] != 5 {
		t.Errorf("first committed page = %d, want the waited page 5 (order %v)", pages[0], pages)
	}
	// The wait should last ~one page commit (100ms), not the whole flush.
	if waitTime > 150*time.Millisecond {
		t.Errorf("wait took %v, want ~100ms", waitTime)
	}
}

func TestSyncBlocksForWholeFlush(t *testing.T) {
	k := sim.NewKernel()
	space := pagemem.NewSpace(testPageSize)
	link := netsim.NewLink(k, netsim.LinkConfig{Name: "disk", BytesPerSec: 10 * testPageSize})
	m := NewManager(Config{Env: k, Space: space, Store: storage.NewSimDisk(link), Strategy: Sync, Name: "sync"})
	r := space.Alloc(10*testPageSize, true)
	var blocked time.Duration
	k.Go("app", func() {
		for i := 0; i < 10; i++ {
			r.Touch(i)
		}
		start := k.Now()
		m.Checkpoint()
		blocked = k.Now() - start
		m.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if blocked != time.Second {
		t.Errorf("sync checkpoint blocked %v, want 1s (10 pages x 100ms)", blocked)
	}
	stats := m.Stats()
	if stats[0].Duration != time.Second || stats[0].BlockedInCheckpoint != time.Second {
		t.Errorf("stats = %+v", stats[0])
	}
}

// TestSyncFlushIsTheCommitter: a Sync flush is the committer pipeline with
// the caller blocked, so a second process writing mid-flush gets a COW slot
// and the epoch stores the checkpoint-time content, the slot is released at
// the seal, and the epoch shows up in the commit and seal metrics.
func TestSyncFlushIsTheCommitter(t *testing.T) {
	k := sim.NewKernel()
	met := obs.New(k.Now)
	fs := &ckpt.MemFS{}
	space := pagemem.NewSpace(testPageSize)
	link := netsim.NewLink(k, netsim.LinkConfig{Name: "disk", BytesPerSec: 10 * testPageSize})
	disk := storage.NewSimDisk(link)
	disk.Next = ckpt.NewRepository(fs, testPageSize)
	m := NewManager(Config{
		Env: k, Space: space, Store: disk,
		Strategy: Sync, CowSlots: 4, Name: "sync-cow", Metrics: met,
	})
	r := space.Alloc(8*testPageSize, false)
	var cowUsed int
	k.Go("app", func() {
		fill(r, 1)
		k.Go("writer", func() {
			k.Sleep(250 * time.Millisecond) // page 5 is written at 600ms
			r.StoreByte(5*testPageSize, 2)
		})
		m.Checkpoint() // 8 pages x 100ms
		m.mu.Lock()
		cowUsed = m.cowUsed
		m.mu.Unlock()
		m.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	restoreAndCompare(t, fs, r, bytes.Repeat([]byte{1}, 8*testPageSize), "sync epoch")
	if cowUsed != 0 {
		t.Errorf("cowUsed = %d after the seal, want 0", cowUsed)
	}
	ep := m.Stats()[0]
	if ep.Cows != 1 || ep.Duration != 800*time.Millisecond || ep.BlockedInCheckpoint != ep.Duration {
		t.Errorf("stats = %+v, want 1 COW and the whole 800ms flush blocked", ep)
	}
	snap := met.TakeSnapshot()
	if n := snap.Counters["aickpt_core_epochs_sealed_total"]; n != 1 {
		t.Errorf("aickpt_core_epochs_sealed_total = %d, want 1", n)
	}
	if n := snap.Counters["aickpt_core_commit_pages_total"]; n != 8 {
		t.Errorf("aickpt_core_commit_pages_total = %d, want 8", n)
	}
}

func TestSecondCheckpointWaitsForFirst(t *testing.T) {
	k := sim.NewKernel()
	space := pagemem.NewSpace(testPageSize)
	link := netsim.NewLink(k, netsim.LinkConfig{Name: "disk", BytesPerSec: 10 * testPageSize})
	m := NewManager(Config{Env: k, Space: space, Store: storage.NewSimDisk(link), Strategy: Adaptive, Name: "bp"})
	r := space.Alloc(10*testPageSize, true)
	var blocked time.Duration
	k.Go("app", func() {
		for i := 0; i < 10; i++ {
			r.Touch(i)
		}
		m.Checkpoint() // flush takes 1s
		k.Sleep(200 * time.Millisecond)
		r.Touch(0)     // will wait (in some state) or cow... slots=0 -> wait
		m.Checkpoint() // must block until first flush completes
		m.WaitIdle()
		m.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	stats := m.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %d", len(stats))
	}
	blocked = stats[1].BlockedInCheckpoint
	if blocked <= 0 {
		t.Errorf("second checkpoint did not block (blocked=%v)", blocked)
	}
	if stats[1].PagesCommitted != 1 {
		t.Errorf("epoch2 pages = %d, want 1", stats[1].PagesCommitted)
	}
}

func TestCowBufferBounded(t *testing.T) {
	k := sim.NewKernel()
	space := pagemem.NewSpace(testPageSize)
	link := netsim.NewLink(k, netsim.LinkConfig{Name: "disk", BytesPerSec: 10 * testPageSize})
	m := NewManager(Config{Env: k, Space: space, Store: storage.NewSimDisk(link), Strategy: Adaptive, CowSlots: 2, Name: "bounded"})
	r := space.Alloc(10*testPageSize, true)
	var cows, waits int
	k.Go("app", func() {
		for i := 0; i < 10; i++ {
			r.Touch(i)
		}
		m.Checkpoint()
		// Touch all 10 immediately: with 2 slots, some COW, some WAIT —
		// never more than 2 outstanding copies.
		for i := 0; i < 10; i++ {
			r.Touch(i)
		}
		m.WaitIdle()
		st := m.Stats()
		cows, waits = st[0].Cows, st[0].Waits
		m.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if cows+waits != 10 {
		t.Errorf("cows+waits = %d+%d, want 10 total", cows, waits)
	}
	if cows < 2 {
		t.Errorf("cows = %d, expected at least the 2 slots to be used", cows)
	}
}

func TestFreeDuringEpoch(t *testing.T) {
	m, space, _ := newRealManager(t, Adaptive, 4)
	a := space.Alloc(4*testPageSize, false)
	b := space.Alloc(4*testPageSize, false)
	fill(a, 1)
	fill(b, 2)
	m.Checkpoint()
	m.WaitIdle()
	fill(a, 3)
	fill(b, 4)
	m.Free(a) // a's dirty pages must not be committed next epoch
	m.Checkpoint()
	m.WaitIdle()
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	stats := m.Stats()
	if stats[1].PagesCommitted != 4 {
		t.Errorf("epoch2 committed %d pages, want 4 (only region b)", stats[1].PagesCommitted)
	}
}

type failingStore struct{ err error }

func (f failingStore) WritePage(uint64, int, []byte, int) error { return f.err }
func (f failingStore) EndEpoch(uint64) error                    { return nil }

func TestStoreErrorSurfaces(t *testing.T) {
	space := pagemem.NewSpace(testPageSize)
	wantErr := errors.New("disk full")
	m := NewManager(Config{
		Env: sim.NewRealEnv(), Space: space,
		Store: failingStore{wantErr}, Strategy: Adaptive, Name: "err",
	})
	defer m.Close()
	r := space.Alloc(2*testPageSize, false)
	fill(r, 1)
	m.Checkpoint()
	m.WaitIdle()
	if !errors.Is(m.Err(), wantErr) {
		t.Errorf("Err() = %v, want %v", m.Err(), wantErr)
	}
}

// Property-style test: a random workload in virtual time, written by two
// processes and checkpointed at random moments by one of them, so writes
// race the flush under every strategy; every sealed epoch must fold to the
// memory image at its checkpoint request.
//
// The images are reconstructed from the fault path rather than copied by
// the checkpointing process, which may be descheduled between its copy and
// the rotation. Rotation protects every page, so the content a page holds
// at its first fault of epoch e is its content at epoch e's request; a page
// that takes no fault in epoch e holds the same content at epoch e+1's
// request (or at the end of the run, for the last epoch).
func TestRestoreInvariantRandomWorkloads(t *testing.T) {
	for _, strategy := range []Strategy{Adaptive, NoPattern, Sync} {
		for seed := uint64(1); seed <= 8; seed++ {
			strategy, seed := strategy, seed
			t.Run(fmt.Sprintf("%v-seed%d", strategy, seed), func(t *testing.T) {
				rng := util.NewRNG(seed)
				k := sim.NewKernel()
				fs := &ckpt.MemFS{}
				space := pagemem.NewSpace(testPageSize)
				link := netsim.NewLink(k, netsim.LinkConfig{Name: "disk", BytesPerSec: 40 * testPageSize})
				disk := storage.NewSimDisk(link)
				disk.Next = ckpt.NewRepository(fs, testPageSize)
				m := NewManager(Config{
					Env: k, Space: space, Store: disk,
					Strategy: strategy, CowSlots: rng.Intn(4), Name: "rand",
				})
				const nPages = 24
				r := space.Alloc(nPages*testPageSize, false)
				// pre[e][p]: page p's content at epoch e's request, for the
				// pages written during epoch e.
				pre := map[uint64]map[int][]byte{}
				space.SetFaultHandler(func(p int) {
					data := append([]byte(nil), space.PageData(p)...)
					if e := m.Epoch(); e > 0 {
						if pre[e] == nil {
							pre[e] = map[int][]byte{}
						}
						if _, ok := pre[e][p]; !ok {
							pre[e][p] = data
						}
					}
					m.handleFault(p)
				})
				write := func(rng *util.RNG) {
					off := rng.Intn(nPages * testPageSize)
					n := min(rng.Intn(3*testPageSize)+1, nPages*testPageSize-off)
					data := make([]byte, n)
					for i := range data {
						data[i] = byte(rng.Uint64())
					}
					r.Write(off, data)
				}
				writers := sim.NewWaitGroup(k)
				writers.Add(1)
				k.Go("writer", func() {
					defer writers.Done()
					wrng := util.NewRNG(seed + 1000)
					for step := 0; step < 200; step++ {
						if wrng.Intn(4) == 0 {
							k.Sleep(time.Duration(wrng.Intn(20)) * time.Millisecond)
						} else {
							write(wrng)
						}
					}
				})
				k.Go("app", func() {
					ckptCount := 0
					for step := 0; step < 300; step++ {
						switch rng.Intn(10) {
						case 0:
							if ckptCount < 5 {
								m.Checkpoint()
								ckptCount++
							}
						case 1:
							k.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
						default:
							write(rng)
						}
					}
					writers.Wait()
					m.WaitIdle()
					m.Close()
				})
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if err := m.Err(); err != nil {
					t.Fatal(err)
				}
				ch, err := ckpt.LoadChain(fs)
				if err != nil {
					t.Fatal(err)
				}
				if len(ch.Epochs) == 0 {
					t.Skip("no checkpoints drawn")
				}
				if last := ch.Epochs[len(ch.Epochs)-1].Epoch; last != m.Epoch() {
					t.Fatalf("last sealed epoch %d, %d requested", last, m.Epoch())
				}
				want := append([]byte(nil), r.Bytes()...)
				for i := len(ch.Epochs) - 1; i >= 0; i-- {
					e := ch.Epochs[i].Epoch
					for p, data := range pre[e] {
						copy(want[p*testPageSize:], data)
					}
					ps, _, err := ckpt.FoldChain(fs, ch.Epochs[:i+1], 1)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]byte, nPages*testPageSize)
					for p := range nPages {
						if data, ok := ps.Get(p); ok {
							copy(got[p*testPageSize:], data)
						}
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("epoch %d folds to an image that differs from memory at its checkpoint request", e)
					}
				}
			})
		}
	}
}

// Property: every page dirtied in an epoch is committed exactly once for
// that epoch, no matter how the application interferes mid-flush.
func TestEveryDirtyPageCommittedExactlyOnce(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, strategy := range []Strategy{Adaptive, NoPattern} {
			rng := util.NewRNG(seed)
			k := sim.NewKernel()
			space := pagemem.NewSpace(testPageSize)
			link := netsim.NewLink(k, netsim.LinkConfig{Name: "disk", BytesPerSec: 30 * testPageSize})
			trace := &tracingStore{next: storage.NewSimDisk(link)}
			m := NewManager(Config{
				Env: k, Space: space, Store: trace,
				Strategy: strategy, CowSlots: rng.Intn(5), Name: "inv",
			})
			const nPages = 32
			r := space.Alloc(nPages*testPageSize, true)
			dirtyPerEpoch := map[uint64]map[int]bool{}
			k.Go("app", func() {
				for e := uint64(1); e <= 3; e++ {
					dirty := map[int]bool{}
					for i := 0; i < 60; i++ {
						p := rng.Intn(nPages)
						r.Touch(p)
						dirty[p] = true
						if rng.Intn(4) == 0 {
							k.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
						}
					}
					m.Checkpoint()
					dirtyPerEpoch[m.Epoch()] = dirty
					// Interfere with the flush: more touches mid-epoch.
					for i := 0; i < 10; i++ {
						r.Touch(rng.Intn(nPages))
					}
				}
				m.WaitIdle()
				m.Close()
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			got := map[uint64]map[int]int{}
			for _, c := range trace.Commits() {
				if got[c.Epoch] == nil {
					got[c.Epoch] = map[int]int{}
				}
				got[c.Epoch][c.Page]++
			}
			for e := uint64(1); e <= 3; e++ {
				want := dirtyPerEpoch[e]
				// Epoch e's flush covers pages dirtied before checkpoint e;
				// for e > 1 that includes mid-flush interference touches of
				// the previous round, so check superset + exactly-once.
				for p, n := range got[e] {
					if n != 1 {
						t.Fatalf("seed %d %v: epoch %d page %d committed %d times", seed, strategy, e, p, n)
					}
				}
				for p := range want {
					if got[e][p] != 1 {
						t.Fatalf("seed %d %v: epoch %d page %d not committed", seed, strategy, e, p)
					}
				}
			}
		}
	}
}
