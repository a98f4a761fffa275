package workload

import (
	"testing"
	"time"

	"repro/internal/pagemem"
	"repro/internal/sim"
)

func TestSyntheticOrders(t *testing.T) {
	s := Synthetic{Pages: 8, Pattern: Ascending, Compute: Compute{Seed: 1}}
	asc := s.Order()
	for i, p := range asc {
		if p != i {
			t.Fatalf("ascending order[%d] = %d", i, p)
		}
	}
	s.Pattern = Descending
	desc := s.Order()
	for i, p := range desc {
		if p != 7-i {
			t.Fatalf("descending order[%d] = %d", i, p)
		}
	}
	s.Pattern = Random
	r1 := s.Order()
	r2 := s.Order()
	seen := make([]bool, 8)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("random order not stable across iterations")
		}
		if seen[r1[i]] {
			t.Fatal("random order not a permutation")
		}
		seen[r1[i]] = true
	}
}

func TestSyntheticRunTouchesEverythingEachIteration(t *testing.T) {
	k := sim.NewKernel()
	space := pagemem.NewSpace(4096)
	proc := NewSyntheticProc(k, space, Synthetic{
		Pages: 16, Iterations: 6, CheckpointEvery: 2, Pattern: Random,
		Compute: Compute{PageCost: time.Microsecond, TouchBatch: 4, Seed: 3},
	})
	faults := 0
	space.SetFaultHandler(func(p int) {
		faults++
		space.Unprotect(p)
	})
	ckpts := 0
	proc.Checkpoint = func() {
		ckpts++
		// Re-protect everything, as a manager's Checkpoint would.
		space.ProtectLiveRegions(nil)
	}
	var runtime time.Duration
	k.Go("bench", func() {
		proc.Run()
		runtime = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ckpts != 3 {
		t.Errorf("checkpoints = %d, want 3", ckpts)
	}
	// Faults: 16 initial + 16 after each checkpoint that is followed by
	// more iterations (the ones after iterations 2 and 4) = 48.
	if faults != 48 {
		t.Errorf("faults = %d, want 48", faults)
	}
	if runtime <= 0 {
		t.Error("virtual time did not advance")
	}
}

func TestToucherCostsDeterministic(t *testing.T) {
	k := sim.NewKernel()
	c := Compute{PageCost: time.Microsecond, CostJitter: 0.3, SpikeP: 0.1, SpikeRun: 16, TouchBatch: 8, Seed: 5}
	a, b := c.toucher(k, 128), c.toucher(k, 128)
	for i := range a.costs {
		if a.costs[i] != b.costs[i] {
			t.Fatal("costs differ for identical seeds")
		}
	}
	c.Seed = 6
	other := c.toucher(k, 128)
	same := 0
	for i := range a.costs {
		if a.costs[i] == other.costs[i] {
			same++
		}
	}
	if same == len(a.costs) {
		t.Fatal("different seeds produced identical costs")
	}
}

func TestCM1ProcDirtiesHotArraysOnly(t *testing.T) {
	k := sim.NewKernel()
	space := pagemem.NewSpace(4096)
	cfg := CM1{
		WriteArrays: 3, WritePages: 4, ColdArrays: 2, ColdPages: 4,
		Iterations: 4, CheckpointEvery: 2,
		Compute: Compute{PageCost: time.Microsecond, TouchBatch: 4, Seed: 9},
	}
	proc := NewCM1Proc(k, space, cfg)
	dirtyPerEpoch := []int{}
	dirty := map[int]bool{}
	space.SetFaultHandler(func(p int) {
		dirty[p] = true
		space.Unprotect(p)
	})
	proc.Checkpoint = func() {
		dirtyPerEpoch = append(dirtyPerEpoch, len(dirty))
		dirty = map[int]bool{}
		space.ProtectLiveRegions(nil)
	}
	k.Go("cm1", proc.Run)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dirtyPerEpoch) != 2 {
		t.Fatalf("checkpoints = %d", len(dirtyPerEpoch))
	}
	// First checkpoint: everything (init touched cold arrays too).
	if dirtyPerEpoch[0] != 20 {
		t.Errorf("first epoch dirty = %d, want 20", dirtyPerEpoch[0])
	}
	// Second: only the hot arrays.
	if dirtyPerEpoch[1] != 12 {
		t.Errorf("second epoch dirty = %d, want 12 (hot only)", dirtyPerEpoch[1])
	}
}

func TestMILCProcCoversAllArraysPerTrajectory(t *testing.T) {
	k := sim.NewKernel()
	space := pagemem.NewSpace(4096)
	cfg := MILC{
		Arrays: 5, PagesPer: 8, SweepsPerTrajectory: 3, Trajectories: 2,
		Compute: Compute{PageCost: time.Microsecond, TouchBatch: 4, Seed: 4},
	}
	proc := NewMILCProc(k, space, cfg)
	dirty := map[int]bool{}
	space.SetFaultHandler(func(p int) {
		dirty[p] = true
		space.Unprotect(p)
	})
	var perTrajectory []int
	proc.Checkpoint = func() {
		perTrajectory = append(perTrajectory, len(dirty))
		dirty = map[int]bool{}
		space.ProtectLiveRegions(nil)
	}
	k.Go("milc", proc.Run)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(perTrajectory) != 2 {
		t.Fatalf("trajectories = %d", len(perTrajectory))
	}
	for i, n := range perTrajectory {
		if n != 40 {
			t.Errorf("trajectory %d dirtied %d pages, want 40 (full lattice)", i, n)
		}
	}
}

func TestMILCEvenOddOrder(t *testing.T) {
	k := sim.NewKernel()
	space := pagemem.NewSpace(4096)
	cfg := MILC{
		Arrays: 1, PagesPer: 8, SweepsPerTrajectory: 1, Trajectories: 1,
		Compute: Compute{PageCost: time.Microsecond, TouchBatch: 1, Seed: 4},
	}
	proc := NewMILCProc(k, space, cfg)
	var order []int
	space.SetFaultHandler(func(p int) {
		order = append(order, p)
		space.Unprotect(p)
	})
	k.Go("milc", func() {
		// Skip init faults by unprotecting first.
		for i := 0; i < 8; i++ {
			space.Unprotect(i)
		}
		space.ProtectLiveRegions(nil)
		order = nil
		proc.sweep(1, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 4, 6, 1, 3, 5, 7}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("checkerboard order = %v, want %v", order, want)
		}
	}
}
