package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/util"
)

// gateStore blocks every WritePage until the test opens the gate, reporting
// the page that is about to block. It freezes the committer mid-epoch so
// the test can drive the fault handler against a known page state.
type gateStore struct {
	mu       sync.Mutex
	inflight chan int
	release  chan struct{}
	opened   bool
}

func newGateStore() *gateStore {
	g := &gateStore{inflight: make(chan int, 1024)}
	g.arm()
	return g
}

// arm re-closes the gate for the next epoch. Only call while no write is in
// flight.
func (g *gateStore) arm() {
	g.mu.Lock()
	g.release = make(chan struct{})
	g.opened = false
	g.mu.Unlock()
	for {
		select {
		case <-g.inflight:
			continue
		default:
			return
		}
	}
}

// open releases every blocked and future write until the next arm.
func (g *gateStore) open() {
	g.mu.Lock()
	if !g.opened {
		close(g.release)
		g.opened = true
	}
	g.mu.Unlock()
}

func (g *gateStore) gate() chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.release
}

func (g *gateStore) WritePage(epoch uint64, page int, data []byte, size int) error {
	g.inflight <- page
	<-g.gate()
	return nil
}

func (g *gateStore) EndEpoch(epoch uint64) error { return nil }

// TestAllocGateCowFaultPath drives two epochs of COW
// faults with the committer frozen mid-flush: the first epoch's faults may
// allocate page copies (the pool is cold), but once those copies are
// recycled the second epoch's COW faults must not touch the heap at all.
func TestAllocGateCowFaultPath(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("race instrumentation skews exact allocation accounting")
	}
	const pages = 64
	const pageSize = 4096
	store := newGateStore()
	space := pagemem.NewSpace(pageSize)
	env := sim.NewRealEnv()
	// The gate holds with full instrumentation attached — tracing included:
	// the observability layer must not cost the warm COW fault path a single
	// allocation.
	met := obs.New(env.Now)
	met.Journal = obs.NewJournal(obs.DefaultJournalDepth)
	m := NewManager(Config{
		Env: env, Space: space, Store: store,
		Strategy: Adaptive, CowSlots: pages, CommitWorkers: 1, Name: "alloc-test",
		Metrics: met,
	})
	defer func() {
		store.open()
		m.Close()
	}()
	r := space.Alloc(pages*pageSize, false)
	for p := 0; p < pages; p++ {
		r.StoreByte(p*pageSize, byte(p))
	}

	// Epoch 1: freeze the committer on its first page, then fault every
	// other page into a COW slot — the pool is cold, so these allocate.
	cowEpoch := func(measure bool) uint64 {
		store.arm()
		m.Checkpoint()
		blocked := <-store.inflight // committer now InProgress on this page
		var before, after runtime.MemStats
		if measure {
			runtime.ReadMemStats(&before)
		}
		for p := 0; p < pages; p++ {
			if p == blocked {
				continue
			}
			r.StoreByte(p*pageSize, byte(p)^0xff)
		}
		if measure {
			runtime.ReadMemStats(&after)
		}
		store.open()
		m.WaitIdle()
		return after.Mallocs - before.Mallocs
	}
	cowEpoch(false) // warm the COW pool, the live-COW queue and the cow map
	// The gate runs on however many Ps the test has, so it tolerates one
	// object: when the committer last ran on another P, the per-P private
	// copy of a sync.Pool it filled there is out of the faulting P's reach,
	// and the first Get on this P allocates once. A fault path that
	// allocated would cost one object per fault (62 here). MemStats also
	// counts the runtime's own occasional allocations — a new M for a woken
	// P, a timer heap grown for the scavenger — which land in one measured
	// window, not in every one, so the gate reads the quietest of a few warm
	// epochs.
	const tolerated = 1
	allocs := cowEpoch(true)
	for try := 1; try < 3 && allocs > tolerated; try++ {
		allocs = min(allocs, cowEpoch(true))
	}
	if allocs > tolerated {
		t.Errorf("warm COW fault path allocated %d objects for %d faults in each of 3 epochs, want <= %d", allocs, pages-1, tolerated)
	}
	// The measured epoch schedules the 63 pages dirtied during epoch 1;
	// of the 63 pages written, the one the committer is frozen on was not
	// scheduled (AVOIDED) and the remaining 62 must all have taken COW
	// slots — otherwise the measurement drove the wrong handler path.
	stats := m.Stats()
	warm := stats[len(stats)-1]
	if warm.Cows != pages-2 {
		t.Fatalf("measured epoch took %d COW slots, want %d (test drove the wrong path)", warm.Cows, pages-2)
	}
	// The instrumentation must also have seen the faults it was attached
	// for: at least the measured epoch's COW faults, counted without having
	// allocated.
	if got := met.FaultsCow.Load(); got < uint64(pages-2) {
		t.Fatalf("metrics counted %d COW faults, want >= %d", got, pages-2)
	}
	if met.Journal.Len() == 0 {
		t.Fatal("trace journal recorded no events during the instrumented epochs")
	}
}

// TestSelectorBuildRacesRegionGrowth drives the off-critical-path selector
// build against concurrent metadata growth: right after every Checkpoint
// the application allocates a fresh region (larger than ensureLocked's 25%
// headroom) and faults into it, forcing the per-page arrays and the dirty
// bitsets to be reallocated while the first committer worker is bucketing
// the previous epoch off-lock. The builder must work from its locked
// snapshot — chasing the live slice headers here corrupts the flush order
// or races the growth (run under -race as part of the CI race suite).
func TestSelectorBuildRacesRegionGrowth(t *testing.T) {
	const pageSize = 4096
	const basePages = 16384
	space := pagemem.NewSpace(pageSize)
	m := NewManager(Config{
		Env: sim.NewRealEnv(), Space: space, Store: storage.NullStore{},
		Strategy: Adaptive, CowSlots: 64, CommitWorkers: 2, Name: "grow-race",
	})
	defer m.Close()
	base := space.Alloc(basePages*pageSize, true)
	for p := 0; p < basePages; p++ {
		base.Touch(p)
	}
	for e := 0; e < 6; e++ {
		m.Checkpoint()
		// Wait until a committer worker has actually claimed the build and
		// released the lock (white-box: this test lives in package core),
		// so the growth below lands while the bucketing runs off-lock. The
		// deadline covers the case where the build already finished.
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			m.mu.Lock()
			building := m.selBuilding
			m.mu.Unlock()
			if building {
				break
			}
			runtime.Gosched()
		}
		// Grow the tracked range by more than the 25% ensureLocked
		// headroom, highest page first: the very first fault lands beyond
		// the headroom and reallocates the per-page arrays and bitsets
		// mid-build.
		extraPages := space.NumPages() / 2
		extra := space.Alloc(extraPages*pageSize, true)
		_, count := extra.Pages()
		for i := count - 1; i >= 0; i-- {
			extra.Touch(i)
		}
		for p := 0; p < basePages; p++ {
			base.Touch(p) // keep the base dirty for the next epoch
		}
		m.WaitIdle()
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCheckpointBlocked measures the time the application spends
// blocked inside Checkpoint() itself as the dirty set grows 8x over a
// fixed-size space. The adaptive selector build used to run O(d log d)
// under the manager lock on this path; it now runs on the first committer
// worker, so blocked time must stay flat in the dirty-page count.
func BenchmarkCheckpointBlocked(b *testing.B) {
	const totalPages = 32768
	const pageSize = 4096
	for _, dirty := range []int{totalPages / 8, totalPages / 2, totalPages} {
		b.Run(benchName(dirty), func(b *testing.B) {
			space := pagemem.NewSpace(pageSize)
			m := NewManager(Config{
				Env: sim.NewRealEnv(), Space: space, Store: storage.NullStore{},
				Strategy: Adaptive, CowSlots: totalPages, CommitWorkers: 1, Name: "blocked-bench",
			})
			defer m.Close()
			r := space.Alloc(totalPages*pageSize, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for p := 0; p < dirty; p++ {
					r.Touch(p)
				}
				m.WaitIdle() // blocked time below measures rotation only
				b.StartTimer()
				m.Checkpoint()
				b.StopTimer()
				m.WaitIdle()
				b.StartTimer()
			}
			stats := m.Stats()
			var blocked float64
			for _, s := range stats {
				blocked += float64(s.BlockedInCheckpoint.Nanoseconds())
			}
			if len(stats) > 0 {
				b.ReportMetric(blocked/float64(len(stats)), "blocked-ns/ckpt")
			}
		})
	}
}

func benchName(dirty int) string {
	switch {
	case dirty >= 1<<10:
		return "dirty" + itoa(dirty>>10) + "k"
	default:
		return "dirty" + itoa(dirty)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
