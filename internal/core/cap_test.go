package core

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pagemem"
	"repro/internal/sim"
	"repro/internal/storage"
)

// twoCoreKernel is the virtual-time kernel on a host with two cores: one
// commit worker of two may pull while the application runs.
type twoCoreKernel struct{ *sim.Kernel }

func (twoCoreKernel) Cores() int { return 2 }

// capRig is a two-worker manager on twoCoreKernel over an 8-page region
// and a disk that writes 10 pages per second.
type capRig struct {
	k     twoCoreKernel
	m     *Manager
	met   *obs.Metrics
	trace *tracingStore
	r     *pagemem.Region
}

func newCapRig(strategy Strategy, cowSlots int) *capRig {
	k := twoCoreKernel{sim.NewKernel()}
	space := pagemem.NewSpace(testPageSize)
	link := netsim.NewLink(k, netsim.LinkConfig{Name: "disk", BytesPerSec: 10 * testPageSize})
	rig := &capRig{k: k, met: obs.New(k.Now), trace: &tracingStore{next: storage.NewSimDisk(link)}}
	rig.m = NewManager(Config{
		Env: k, Space: space, Store: rig.trace, Strategy: strategy,
		CowSlots: cowSlots, CommitWorkers: 2, Name: "cap", Metrics: rig.met,
	})
	rig.r = space.Alloc(8*testPageSize, false)
	return rig
}

// busyUntilSealed is a running application: it computes and writes, never
// parking in the manager, until the epoch in flight is sealed.
func (rig *capRig) busyUntilSealed() {
	for i := 0; ; i++ {
		rig.k.Sleep(30 * time.Millisecond)
		rig.m.mu.Lock()
		busy := rig.m.inProgress
		rig.m.mu.Unlock()
		if !busy {
			return
		}
		rig.r.StoreByte((7-i%8)*testPageSize, byte(i)) // against the flush order
	}
}

// run drives app on the kernel, then checks that the one epoch sealed
// exactly once with all 8 pages, and returns worker 1's page count.
func (rig *capRig) run(t *testing.T, app func()) uint64 {
	t.Helper()
	rig.k.Go("app", func() {
		fill(rig.r, 1)
		rig.m.Checkpoint()
		app()
		rig.m.Close()
	})
	if err := rig.k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rig.m.Err(); err != nil {
		t.Fatal(err)
	}
	if got := rig.trace.Sealed(); len(got) != 1 {
		t.Errorf("sealed epochs = %v, want exactly one", got)
	}
	if n := len(rig.trace.Commits()); n != 8 {
		t.Errorf("%d pages committed, want 8", n)
	}
	w0, w1 := rig.met.WorkerPages[0].Load(), rig.met.WorkerPages[1].Load()
	if w0+w1 != 8 {
		t.Errorf("WorkerPages = %d + %d, want 8 in all", w0, w1)
	}
	return w1
}

// TestCapKeepsCoreForRunningWriter: on two cores, while the application
// computes and writes through the whole flush, only worker 0 pulls.
func TestCapKeepsCoreForRunningWriter(t *testing.T) {
	rig := newCapRig(Adaptive, 8)
	w1 := rig.run(t, rig.busyUntilSealed)
	if w1 != 0 {
		t.Errorf("worker 1 pulled %d pages while the application ran, want 0", w1)
	}
	if cows := rig.m.Stats()[0].Cows; cows == 0 {
		t.Error("the writer never raced the flush")
	}
}

// TestCapLiftsWhileApplicationWaits: each way the application parks in the
// manager lets worker 1 pull, also when it parks after worker 1 was capped.
func TestCapLiftsWhileApplicationWaits(t *testing.T) {
	cases := []struct {
		name     string
		strategy Strategy
		cowSlots int
		app      func(rig *capRig)
	}{
		{"WaitIdle", Adaptive, 8, func(rig *capRig) {
			rig.k.Sleep(150 * time.Millisecond)
			rig.m.WaitIdle()
		}},
		{"WaitFault", NoPattern, 0, func(rig *capRig) {
			rig.k.Sleep(150 * time.Millisecond)
			rig.r.StoreByte(5*testPageSize, 2) // no COW slot: WAIT
			rig.busyUntilSealed()
		}},
		{"Sync", Sync, 8, func(*capRig) {}}, // Checkpoint itself waited
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rig := newCapRig(c.strategy, c.cowSlots)
			w1 := rig.run(t, func() { c.app(rig) })
			if w1 == 0 {
				t.Error("worker 1 pulled nothing while the application waited")
			}
			if c.cowSlots == 0 {
				if ep := rig.m.Stats()[0]; ep.Waits == 0 {
					t.Errorf("stats = %+v, want a WAIT fault", ep)
				}
			}
		})
	}
}

// TestCloseReleasesCappedWorker: Close mid-epoch, with worker 1 capped and
// waiting, drains the epoch on worker 0 and returns.
func TestCloseReleasesCappedWorker(t *testing.T) {
	rig := newCapRig(Adaptive, 8)
	w1 := rig.run(t, func() { rig.k.Sleep(50 * time.Millisecond) })
	if w1 != 0 {
		t.Errorf("worker 1 pulled %d pages, want 0", w1)
	}
}
