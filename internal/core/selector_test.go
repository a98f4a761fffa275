package core

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/util"
)

// newAdaptiveSelector builds a fresh flush order; the manager reuses its
// embedded one via build instead.
func newAdaptiveSelector(dirty *util.Bitset, lastAT []AccessType, lastIndex []int32) *flushOrder {
	s := &flushOrder{}
	s.build(dirty, lastAT, lastIndex)
	return s
}

func drain(t *testing.T, s *flushOrder, m *Manager, remaining *util.Bitset) []int {
	t.Helper()
	var out []int
	for {
		p := s.nextLocked(m, remaining)
		if p < 0 {
			return out
		}
		if !remaining.Test(p) {
			t.Fatalf("flush order returned page %d not in remaining set", p)
		}
		remaining.Clear(p)
		out = append(out, p)
	}
}

// TestFlushOrderTiersByStrategy: with history classes and live-COW pages
// present, Adaptive walks all four tiers while NoPattern and Sync serve the
// waited page and then ascend — they differ from Adaptive only in the
// order's tiers, and nothing but this test keeps them from using the rest.
func TestFlushOrderTiersByStrategy(t *testing.T) {
	const n = 10
	lastAT := make([]AccessType, n)
	lastIndex := make([]int32, n)
	lastAT[4], lastIndex[4] = Wait, 3
	lastAT[7], lastIndex[7] = Wait, 1
	lastAT[2], lastIndex[2] = Cow, 2
	lastAT[0], lastIndex[0] = Avoided, 5
	lastAT[1], lastIndex[1] = After, 6
	dirty := util.NewBitset(n)
	for _, p := range []int{0, 1, 2, 3, 4, 7, 9} {
		dirty.Set(p)
	}
	for _, tc := range []struct {
		strategy Strategy
		want     []int
	}{
		// Waited 3; live COW 9, 2; WAIT 7, 4; AVOIDED 0; rest 1.
		{Adaptive, []int{3, 9, 2, 7, 4, 0, 1}},
		{NoPattern, []int{3, 0, 1, 2, 4, 7, 9}},
		{Sync, []int{3, 0, 1, 2, 4, 7, 9}},
	} {
		t.Run(tc.strategy.String(), func(t *testing.T) {
			m := &Manager{cfg: Config{Strategy: tc.strategy}, liveCowQueue: []int{9, 2}}
			m.waited.push(3)
			got := drain(t, newAdaptiveSelector(dirty, lastAT, lastIndex), m, dirty.Clone())
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("order = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestAdaptiveSelectorClassOrder(t *testing.T) {
	const n = 10
	lastAT := make([]AccessType, n)
	lastIndex := make([]int32, n)
	// History: page 4 WAIT (idx 3), page 7 WAIT (idx 1), page 2 COW (idx 2),
	// page 0 AVOIDED (idx 5), page 1 AFTER (idx 6), page 3 untracked.
	lastAT[4], lastIndex[4] = Wait, 3
	lastAT[7], lastIndex[7] = Wait, 1
	lastAT[2], lastIndex[2] = Cow, 2
	lastAT[0], lastIndex[0] = Avoided, 5
	lastAT[1], lastIndex[1] = After, 6
	dirty := util.NewBitset(n)
	for _, p := range []int{0, 1, 2, 3, 4, 7} {
		dirty.Set(p)
	}
	sel := newAdaptiveSelector(dirty, lastAT, lastIndex)
	m := &Manager{}
	got := drain(t, sel, m, dirty.Clone())
	// WAIT by index: 7, 4; COW: 2; AVOIDED: 0; rest by (index, page): 3
	// (idx 0), 1 (idx 6).
	want := []int{7, 4, 2, 0, 3, 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestAdaptiveSelectorWaitedAndLiveCowPriority(t *testing.T) {
	const n = 8
	lastAT := make([]AccessType, n)
	lastIndex := make([]int32, n)
	dirty := util.NewBitset(n)
	for p := 0; p < n; p++ {
		dirty.Set(p)
	}
	sel := newAdaptiveSelector(dirty, lastAT, lastIndex)
	m := &Manager{liveCowQueue: []int{6, 2}}
	m.waited.push(5)
	remaining := dirty.Clone()
	got := drain(t, sel, m, remaining)
	// waited 5 first; live COW 6 then 2; then rest ascending.
	want := []int{5, 6, 2, 0, 1, 3, 4, 7}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestAdaptiveSelectorSkipsAlreadyCommitted(t *testing.T) {
	const n = 4
	lastAT := make([]AccessType, n)
	lastIndex := make([]int32, n)
	dirty := util.NewBitset(n)
	for p := 0; p < n; p++ {
		dirty.Set(p)
	}
	sel := newAdaptiveSelector(dirty, lastAT, lastIndex)
	m := &Manager{liveCowQueue: []int{1}}
	remaining := dirty.Clone()
	remaining.Clear(1) // already committed through another path
	got := drain(t, sel, m, remaining)
	if fmt.Sprint(got) != fmt.Sprint([]int{0, 2, 3}) {
		t.Errorf("order = %v", got)
	}
	if m.liveCowHead != len(m.liveCowQueue) {
		t.Errorf("stale live-COW entry not consumed: %v (head %d)", m.liveCowQueue, m.liveCowHead)
	}
}

// sortedReferenceClasses is the original comparison-sort construction of
// Algorithm 4's priority classes (sort.Slice by (LastIndex, page) within
// each class). The bucketed build must reproduce it exactly.
func sortedReferenceClasses(dirty *util.Bitset, lastAT []AccessType, lastIndex []int32) [4][]int32 {
	var classes [4][]int32
	for p := dirty.NextSet(0); p >= 0; p = dirty.NextSet(p + 1) {
		c := classOf(lastAT[p])
		classes[c] = append(classes[c], int32(p))
	}
	for c := range classes {
		cls := classes[c]
		sort.Slice(cls, func(i, j int) bool {
			a, b := cls[i], cls[j]
			if lastIndex[a] != lastIndex[b] {
				return lastIndex[a] < lastIndex[b]
			}
			return a < b
		})
	}
	return classes
}

// Property: the linear-bucketing selector build emits classes identical to
// the sorted reference implementation — for dense unique access ranks (what
// the manager produces) and for degenerate histories with duplicate and
// zero ranks (what defensive code may see). Flush order for a fixed history
// is therefore unchanged by the rewrite.
func TestBucketedBuildMatchesSortedReference(t *testing.T) {
	f := func(seed uint64, dense bool) bool {
		rng := util.NewRNG(seed)
		n := rng.Intn(200) + 1
		lastAT := make([]AccessType, n)
		lastIndex := make([]int32, n)
		dirty := util.NewBitset(n)
		var dirtyPages []int
		for p := 0; p < n; p++ {
			if rng.Intn(3) == 0 {
				continue
			}
			dirty.Set(p)
			dirtyPages = append(dirtyPages, p)
			lastAT[p] = AccessType(rng.Intn(5))
			lastIndex[p] = int32(rng.Intn(2 * n)) // duplicates and zeros allowed
		}
		if dense {
			// The manager's real histories: ranks are a dense permutation
			// of 1..len(dirty) in first-write order.
			perm := rng.Perm(len(dirtyPages))
			for i, p := range dirtyPages {
				lastIndex[p] = int32(perm[i]) + 1
			}
		}
		got := newAdaptiveSelector(dirty, lastAT, lastIndex)
		want := sortedReferenceClasses(dirty, lastAT, lastIndex)
		for c := range want {
			if fmt.Sprint(got.classes[c]) != fmt.Sprint(want[c]) {
				t.Logf("seed %d dense %v class %d: got %v want %v", seed, dense, c, got.classes[c], want[c])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocGateSelectorBuildReuse: rebuilding the manager's
// embedded selector for a stable working set must not allocate once its
// scratch has grown to size.
func TestAllocGateSelectorBuildReuse(t *testing.T) {
	const n = 1024
	lastAT := make([]AccessType, n)
	lastIndex := make([]int32, n)
	dirty := util.NewBitset(n)
	rng := util.NewRNG(11)
	perm := rng.Perm(n)
	for p := 0; p < n; p++ {
		dirty.Set(p)
		lastAT[p] = AccessType(rng.Intn(5))
		lastIndex[p] = int32(perm[p]) + 1
	}
	var s flushOrder
	s.build(dirty, lastAT, lastIndex) // grow scratch
	if allocs := testing.AllocsPerRun(50, func() { s.build(dirty, lastAT, lastIndex) }); allocs != 0 {
		t.Errorf("steady-state selector build allocated %.2f times per run, want 0", allocs)
	}
}

// Property: for any history, the adaptive selector emits every dirty page
// exactly once, WAIT-class pages before COW-class before AVOIDED-class
// before the rest, and within a class by ascending LastIndex.
func TestAdaptiveSelectorQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := util.NewRNG(seed)
		n := rng.Intn(64) + 1
		lastAT := make([]AccessType, n)
		lastIndex := make([]int32, n)
		dirty := util.NewBitset(n)
		for p := 0; p < n; p++ {
			if rng.Intn(2) == 0 {
				continue
			}
			dirty.Set(p)
			lastAT[p] = AccessType(rng.Intn(5))
			lastIndex[p] = int32(rng.Intn(100))
		}
		sel := newAdaptiveSelector(dirty, lastAT, lastIndex)
		m := &Manager{}
		remaining := dirty.Clone()
		var out []int
		for {
			p := sel.nextLocked(m, remaining)
			if p < 0 {
				break
			}
			if !remaining.Test(p) {
				return false
			}
			remaining.Clear(p)
			out = append(out, p)
		}
		if len(out) != dirty.Count() || remaining.Count() != 0 {
			return false
		}
		// Class monotonicity and intra-class index order.
		prevClass, prevIndex := -1, int32(-1)
		for _, p := range out {
			c := classOf(lastAT[p])
			if c < prevClass {
				return false
			}
			if c > prevClass {
				prevClass, prevIndex = c, -1
			}
			if lastIndex[p] < prevIndex {
				return false
			}
			prevIndex = lastIndex[p]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAdaptiveSelectorBuild measures building the Algorithm 4 priority
// queues for a 65536-page dirty set (the per-checkpoint cost).
func BenchmarkAdaptiveSelectorBuild(b *testing.B) {
	const pages = 65536
	rng := util.NewRNG(1)
	lastAT := make([]AccessType, pages)
	lastIndex := make([]int32, pages)
	dirty := util.NewBitset(pages)
	for p := 0; p < pages; p++ {
		dirty.Set(p)
		lastAT[p] = AccessType(rng.Intn(5))
		lastIndex[p] = int32(rng.Intn(pages))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newAdaptiveSelector(dirty, lastAT, lastIndex)
	}
}
