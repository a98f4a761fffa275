package core

import (
	"repro/internal/util"
)

// flushOrder produces the next page to commit (SELECT_NEXT_PAGE, Algorithm
// 4) for every strategy. It is consulted with the manager's mutex held —
// possibly by several committer workers in turn, each of which removes the
// page it was handed from the remaining set before releasing the lock. Its
// tiers, highest first:
//
//  1. the page the application is waiting on right now,
//  2. pages that triggered a copy-on-write in the current epoch (committing
//     them releases COW slots),
//  3. pages whose previous-epoch access type was WAIT, then COW, then
//     AVOIDED, then the rest — each class ordered by earliest previous
//     access (LastIndex), ties in ascending page order,
//  4. an ascending page cursor over whatever is left.
//
// Tiers 2 and 3 are the adaptive strategy's; NoPattern and Sync flush the
// waited page and then ascend — the async-no-pattern baseline of §4.2
// ("dirty pages are simply dumped in ascending order of their address").
// The baseline still serves blocked writers first: the paper reports tens
// of thousands of waits per epoch that each resolve quickly, which is only
// possible if the committer serves waiters promptly; its ignorance is about
// the background order, not about starving blocked writers.
//
// Construction happens off the application-blocking path: Checkpoint() only
// names the epoch's order, and for the adaptive strategy the first committer
// worker to enter the epoch builds the classes (see
// Manager.flushEpochLocked) with the manager lock *released*. That is safe
// because the build reads a locked snapshot of the previous epoch's
// structures: the *contents* of LastDirty, LastAT and LastIndex are frozen
// between rotation and the first page pull (the fault handler writes the
// *current* epoch's arrays, committer workers only clear LastDirty bits
// after pulling from a built order, and rotation waits for the in-flight
// epoch to finish), but a fault on a page past the tracked range grows those
// containers, so the builder captures the slice headers and a bitset copy
// under the lock instead of chasing the live fields. Workers arriving while
// the build is in progress block until it completes, so no page is pulled
// from a half-built order.
//
// A Manager embeds one flushOrder and rebuilds it in place every epoch; its
// slices are retained scratch, so the steady-state build allocates nothing
// once the scratch reaches the working-set size.
type flushOrder struct {
	// classes[0..3]: WAIT, COW, AVOIDED, rest — page IDs ordered by
	// (LastIndex, page). Consumed front to back, skipping pages no longer
	// in the remaining set.
	classes [4][]int32
	heads   [4]int
	// cursor is the ascending tier's next candidate page.
	cursor int

	// build scratch, reused across epochs.
	count []int32 // per-LastIndex page counts, then placement offsets
	order []int32 // dirty pages sorted by (LastIndex, page)
}

// classOf maps a previous-epoch access type to its priority class.
func classOf(at AccessType) int {
	switch at {
	case Wait:
		return 0
	case Cow:
		return 1
	case Avoided:
		return 2
	default: // After, Untouched (no usable history)
		return 3
	}
}

// build partitions the dirty set by previous-epoch access type, each class
// ordered by (LastIndex, page). lastAT and lastIndex are indexed by page ID.
//
// The order is produced by a counting sort over LastIndex, not a comparison
// sort: the manager assigns LastIndex as a dense access rank (1..n in first-
// write order), so bucketing pages by rank and reading the buckets back in
// rank order yields the class orders directly in O(dirty + maxRank) — the
// previous sort.Slice implementation spent O(n log n) with reflection-based
// swaps on an already-countable key. Equal ranks (which the manager never
// produces, but test histories may) tie-break by ascending page ID exactly
// like the comparison sort did, because pages are placed in ascending
// bitset order.
func (s *flushOrder) build(dirty *util.Bitset, lastAT []AccessType, lastIndex []int32) {
	for c := range s.classes {
		s.classes[c] = s.classes[c][:0]
		s.heads[c] = 0
	}
	n, maxIdx := 0, int32(0)
	for p := dirty.NextSet(0); p >= 0; p = dirty.NextSet(p + 1) {
		n++
		if lastIndex[p] > maxIdx {
			maxIdx = lastIndex[p]
		}
	}
	if n == 0 {
		return
	}
	if cap(s.count) < int(maxIdx)+1 {
		s.count = make([]int32, maxIdx+1)
	}
	count := s.count[:maxIdx+1]
	clear(count)
	rank := func(p int) int32 {
		if idx := lastIndex[p]; idx > 0 {
			return idx
		}
		return 0
	}
	for p := dirty.NextSet(0); p >= 0; p = dirty.NextSet(p + 1) {
		count[rank(p)]++
	}
	var total int32
	for i := range count {
		c := count[i]
		count[i] = total
		total += c
	}
	if cap(s.order) < n {
		s.order = make([]int32, n)
	}
	order := s.order[:n]
	for p := dirty.NextSet(0); p >= 0; p = dirty.NextSet(p + 1) {
		r := rank(p)
		order[count[r]] = int32(p)
		count[r]++
	}
	for _, p := range order {
		c := classOf(lastAT[p])
		s.classes[c] = append(s.classes[c], p)
	}
}

// nextLocked returns the next page to commit, or -1 when the remaining set
// is empty. remaining is the live LastDirty set: pages already pulled by a
// worker must be skipped.
func (s *flushOrder) nextLocked(m *Manager, remaining *util.Bitset) int {
	// Tier 1: a page the application is blocked on right now.
	for !m.cfg.NoWaitedHint {
		p, ok := m.waited.front()
		if !ok {
			break
		}
		if remaining.Test(p) {
			return p
		}
		// Already pulled by another worker; drop the hint.
		m.waited.remove(p)
	}
	if m.cfg.Strategy == Adaptive {
		// Tier 2: current-epoch COW pages — free their slots ASAP. Consumed
		// entries advance a head index; the backing array is reused across
		// epochs (rotation resets both), so the queue never re-grows in
		// steady state.
		for !m.cfg.NoLiveCowPriority && m.liveCowHead < len(m.liveCowQueue) {
			p := m.liveCowQueue[m.liveCowHead]
			if remaining.Test(p) {
				return p
			}
			m.liveCowHead++
		}
		// Tier 3: previous-epoch interference classes.
		for c := range s.classes {
			for s.heads[c] < len(s.classes[c]) {
				p := int(s.classes[c][s.heads[c]])
				if remaining.Test(p) {
					return p
				}
				s.heads[c]++
			}
		}
	}
	// Tier 4: ascending. The cursor may have passed pages pulled out of
	// order (waited pages); rescan from the start once it runs dry.
	p := remaining.NextSet(s.cursor)
	if p < 0 {
		p = remaining.NextSet(0)
	}
	if p >= 0 {
		s.cursor = p + 1
	}
	return p
}
