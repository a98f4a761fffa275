package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/util"
)

// Exactly-once delivery under the parallel pipeline: for a spread of worker
// counts, with application goroutines interfering mid-flush, every page
// dirtied before a checkpoint is committed exactly once for that epoch and
// the COW buffer always drains back to zero. Run with -race.
func TestParallelCommitExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			const nPages = 64
			fs := &ckpt.MemFS{}
			trace := &tracingStore{next: ckpt.NewRepository(fs, testPageSize)}
			space := pagemem.NewSpace(testPageSize)
			m := NewManager(Config{
				Env:           sim.NewRealEnv(),
				Space:         space,
				Store:         trace,
				Strategy:      Adaptive,
				CowSlots:      4,
				CommitWorkers: workers,
				Name:          "par",
			})
			defer m.Close()
			r := space.Alloc(nPages*testPageSize, false)

			// Interferers keep rewriting the low half of the region while
			// checkpoints are in flight, exercising COW, WAIT and AVOIDED
			// paths against multiple committer workers.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := util.NewRNG(uint64(g + 1))
					for {
						select {
						case <-stop:
							return
						default:
						}
						p := rng.Intn(nPages / 2)
						r.StoreByte(p*testPageSize+g, byte(rng.Uint64()))
					}
				}(g)
			}

			mustDirty := map[uint64][]int{}
			for e := 1; e <= 4; e++ {
				// The main thread deterministically dirties the high half;
				// those pages must appear in the next epoch's commits.
				var known []int
				for p := nPages / 2; p < nPages; p++ {
					if (p+e)%3 != 0 {
						r.StoreByte(p*testPageSize, byte(e))
						known = append(known, p)
					}
				}
				m.Checkpoint()
				mustDirty[m.Epoch()] = known
			}
			m.WaitIdle()
			close(stop)
			wg.Wait()
			m.WaitIdle()
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}

			// The COW buffer drained back to zero.
			m.mu.Lock()
			if m.cowUsed != 0 || len(m.cow) != 0 {
				t.Errorf("COW slots leaked: used=%d map=%d", m.cowUsed, len(m.cow))
			}
			m.mu.Unlock()

			perEpoch := map[uint64]map[int]int{}
			for _, c := range trace.Commits() {
				if perEpoch[c.Epoch] == nil {
					perEpoch[c.Epoch] = map[int]int{}
				}
				perEpoch[c.Epoch][c.Page]++
			}
			for epoch, pages := range perEpoch {
				for p, n := range pages {
					if n != 1 {
						t.Fatalf("epoch %d page %d committed %d times", epoch, p, n)
					}
				}
			}
			for epoch, known := range mustDirty {
				for _, p := range known {
					if perEpoch[epoch][p] != 1 {
						t.Fatalf("epoch %d: dirtied page %d not committed (workers=%d)", epoch, p, workers)
					}
				}
			}
			// Every epoch sealed exactly once, in order.
			if got := trace.Sealed(); len(got) != 4 {
				t.Fatalf("sealed epochs = %v, want 4", got)
			}
			// The chain restores cleanly.
			if _, err := ckpt.Restore(fs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// countingFailStore fails every WritePage and counts seals.
type countingFailStore struct {
	err error

	mu     sync.Mutex
	writes int
	seals  []uint64
}

func (c *countingFailStore) WritePage(epoch uint64, page int, data []byte, size int) error {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return c.err
}

func (c *countingFailStore) EndEpoch(epoch uint64) error {
	c.mu.Lock()
	c.seals = append(c.seals, epoch)
	c.mu.Unlock()
	return nil
}

// A failing backend under many workers: the epoch still completes (waiters
// must not hang), is sealed exactly once, and the first error is surfaced
// exactly once through Err.
func TestParallelCommitErrorFailsEpochOnce(t *testing.T) {
	store := &countingFailStore{err: errors.New("backend down")}
	space := pagemem.NewSpace(testPageSize)
	m := NewManager(Config{
		Env:           sim.NewRealEnv(),
		Space:         space,
		Store:         store,
		Strategy:      NoPattern,
		CommitWorkers: 4,
		Name:          "fail",
	})
	defer m.Close()
	r := space.Alloc(16*testPageSize, false)
	fill(r, 1)
	m.Checkpoint()
	m.WaitIdle()
	if !errors.Is(m.Err(), store.err) {
		t.Fatalf("Err() = %v, want %v", m.Err(), store.err)
	}
	fill(r, 2)
	m.Checkpoint() // the manager keeps operating after a failed epoch
	m.WaitIdle()
	store.mu.Lock()
	defer store.mu.Unlock()
	if fmt.Sprint(store.seals) != fmt.Sprint([]uint64{1, 2}) {
		t.Errorf("seals = %v, want each epoch sealed exactly once", store.seals)
	}
	if store.writes != 32 {
		t.Errorf("writes = %d, want 32 (every page attempted despite errors)", store.writes)
	}
}

// chainSignature reduces a repository chain to its logical content: for
// every sealed epoch, the set of (page, content-hash) pairs it recorded —
// physical records and dedup refs alike. Two chains with equal signatures
// restore identically at every epoch.
func chainSignature(t *testing.T, fs ckpt.FS) map[uint64]map[int]uint64 {
	t.Helper()
	ch, err := ckpt.LoadChain(fs)
	if err != nil {
		t.Fatal(err)
	}
	sig := map[uint64]map[int]uint64{}
	for _, m := range append(ch.Superseded, ch.Epochs...) {
		entry := map[int]uint64{}
		if len(m.Hashes) != len(m.Pages) {
			t.Fatalf("epoch %d: %d hashes for %d pages", m.Epoch, len(m.Hashes), len(m.Pages))
		}
		for i, p := range m.Pages {
			entry[p] = m.Hashes[i]
		}
		for _, ref := range m.Refs {
			entry[ref.Page] = ref.Hash
		}
		sig[m.Epoch] = entry
	}
	return sig
}

// runScriptedWorkload runs a deterministic multi-epoch workload against a
// fresh manager with the given worker count and returns the backing FS.
// The script writes pages both between checkpoints and immediately after
// them (interfering with the in-flight flush), so parallel runs exercise
// COW/WAIT/AVOIDED races — yet the committed content of every epoch is the
// content at checkpoint-request time, a pure function of the script.
func runScriptedWorkload(t *testing.T, seed uint64, workers int) *ckpt.MemFS {
	t.Helper()
	const nPages = 48
	fs := &ckpt.MemFS{}
	space := pagemem.NewSpace(testPageSize)
	m := NewManager(Config{
		Env:           sim.NewRealEnv(),
		Space:         space,
		Store:         ckpt.NewRepository(fs, testPageSize),
		Strategy:      Adaptive,
		CowSlots:      3,
		CommitWorkers: workers,
		Name:          "script",
	})
	defer m.Close()
	r := space.Alloc(nPages*testPageSize, false)
	rng := util.NewRNG(seed)
	buf := make([]byte, testPageSize)
	writePage := func(p int, stamp byte) {
		for i := range buf {
			buf[i] = byte(p)*3 ^ stamp ^ byte(i%7)
		}
		r.Write(p*testPageSize, buf)
	}
	for e := 1; e <= 5; e++ {
		for i := 0; i < 30; i++ {
			writePage(rng.Intn(nPages), byte(rng.Uint64()))
		}
		m.Checkpoint()
		// Post-checkpoint interference: rewrite pages while the epoch is
		// still flushing. The epoch must commit the pre-write content.
		for i := 0; i < 12; i++ {
			writePage(rng.Intn(nPages), byte(rng.Uint64()))
		}
	}
	m.WaitIdle()
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// Property: a parallel commit pipeline produces a chain logically identical
// to the serial committer's — same per-epoch page/content-hash sets, and a
// bit-identical restored image — for random workloads and worker counts.
func TestParallelSerialChainsEquivalent(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			serialFS := runScriptedWorkload(t, seed, 1)
			serialSig := chainSignature(t, serialFS)
			serialIm, err := ckpt.Restore(serialFS)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				parFS := runScriptedWorkload(t, seed, workers)
				parSig := chainSignature(t, parFS)
				if len(parSig) != len(serialSig) {
					t.Fatalf("workers=%d: %d sealed epochs, serial sealed %d", workers, len(parSig), len(serialSig))
				}
				for epoch, want := range serialSig {
					got := parSig[epoch]
					if len(got) != len(want) {
						t.Fatalf("workers=%d epoch %d: %d pages, serial committed %d", workers, epoch, len(got), len(want))
					}
					for p, h := range want {
						if got[p] != h {
							t.Fatalf("workers=%d epoch %d page %d: content hash %x, serial %x", workers, epoch, p, got[p], h)
						}
					}
				}
				parIm, err := ckpt.Restore(parFS)
				if err != nil {
					t.Fatal(err)
				}
				if parIm.Epoch != serialIm.Epoch || parIm.Pages.Len() != serialIm.Pages.Len() {
					t.Fatalf("workers=%d: restored (epoch %d, %d pages), serial (epoch %d, %d pages)",
						workers, parIm.Epoch, parIm.Pages.Len(), serialIm.Epoch, serialIm.Pages.Len())
				}
				for p, data := range serialIm.Pages.All() {
					if got, _ := parIm.Pages.Get(p); !bytes.Equal(got, data) {
						t.Fatalf("workers=%d: restored page %d differs from serial baseline", workers, p)
					}
				}
			}
		})
	}
}

// A waited page must still jump the flush queue when several application
// threads block on distinct pages at once: the dedup queue serves them in
// arrival order and each wait resolves in about one page-commit time, not
// a whole flush.
func TestParallelWaitedPagesResolve(t *testing.T) {
	const nPages = 32
	space := pagemem.NewSpace(testPageSize)
	slow := &slowStore{delay: time.Millisecond}
	m := NewManager(Config{
		Env:           sim.NewRealEnv(),
		Space:         space,
		Store:         slow,
		Strategy:      Adaptive,
		CowSlots:      0, // every in-flight touch must wait
		CommitWorkers: 4,
		Name:          "waiters",
	})
	defer m.Close()
	r := space.Alloc(nPages*testPageSize, false)
	fill(r, 1)
	m.Checkpoint()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Touch the tail pages, which the ascending-ish flush reaches
			// last: without the waited-page hint these waits would take
			// nearly the whole flush.
			r.StoreByte((nPages-1-g)*testPageSize, byte(g))
		}(g)
	}
	wg.Wait()
	m.WaitIdle()
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st[0].Waits == 0 {
		t.Skip("no waits drawn (flush finished before the touches)")
	}
	perWait := st[0].WaitTime / time.Duration(st[0].Waits)
	if perWait > time.Duration(nPages/2)*slow.delay {
		t.Errorf("average wait %v, want well under half the flush (%v)", perWait, time.Duration(nPages)*slow.delay)
	}
}

// slowStore sleeps per write, simulating a slow backend in real time.
type slowStore struct{ delay time.Duration }

func (s *slowStore) WritePage(uint64, int, []byte, int) error {
	time.Sleep(s.delay)
	return nil
}
func (s *slowStore) EndEpoch(uint64) error { return nil }

// pageQueue unit behavior: FIFO with dedup-on-enqueue and lazy removal.
func TestPageQueue(t *testing.T) {
	var q pageQueue
	q.push(3)
	q.push(7)
	q.push(3) // duplicate: single entry survives
	if q.len() != 2 {
		t.Fatalf("len = %d, want 2", q.len())
	}
	if p, ok := q.front(); !ok || p != 3 {
		t.Fatalf("front = %d,%v, want 3", p, ok)
	}
	q.remove(3)
	if p, ok := q.front(); !ok || p != 7 {
		t.Fatalf("front after remove = %d,%v, want 7", p, ok)
	}
	q.remove(7)
	if _, ok := q.front(); ok {
		t.Fatal("queue not empty after removing everything")
	}
	q.push(9)
	if p, ok := q.front(); !ok || p != 9 {
		t.Fatalf("front after reuse = %d,%v, want 9", p, ok)
	}
	q.reset()
	if q.len() != 0 {
		t.Fatal("reset left entries")
	}
	if _, ok := q.front(); ok {
		t.Fatal("reset queue has a front")
	}
}
