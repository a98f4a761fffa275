package core

import (
	"repro/internal/util"
)

// selector produces the next page to commit (SELECT_NEXT_PAGE, Algorithm 4).
// Selectors are consulted with the manager's mutex held — possibly by
// several committer workers in turn, each of which removes the page it was
// handed from the remaining set before releasing the lock.
//
// Construction happens off the application-blocking path: Checkpoint() only
// names the selector for the new epoch, and the first committer worker to
// enter the epoch builds it (see Manager.flushEpochLocked) with the manager
// lock *released*. That is safe because the build reads a locked snapshot
// of the previous epoch's structures: the *contents* of LastDirty, LastAT
// and LastIndex are frozen between rotation and the first page pull (the
// fault handler writes the *current* epoch's arrays, committer workers only
// clear LastDirty bits after pulling from a built selector, and rotation
// waits for the in-flight epoch to finish), but a fault on a page past the
// tracked range grows those containers, so the builder captures the slice
// headers and a bitset copy under the lock instead of chasing the live
// fields. Workers arriving while the build is in progress block until it
// completes, so no page is pulled from a half-built order.
type selector interface {
	// nextLocked returns the next page to commit, or -1 when the remaining set
	// is empty. remaining is the live LastDirty set: pages already pulled
	// by a worker or committed through other paths must be skipped.
	nextLocked(m *Manager, remaining *util.Bitset) int
}

// ascendingSelector flushes in ascending page order — the
// async-no-pattern baseline of §4.2 ("dirty pages are simply dumped in
// ascending order of their address"). A page the application is currently
// blocked on still jumps the queue: the baseline in the paper reports tens
// of thousands of waits per epoch that each resolve quickly, which is only
// possible if the committer serves waiters promptly; the baseline's
// ignorance is about the background order (no history classes, no live-COW
// slot recycling preference), not about starving blocked writers.
type ascendingSelector struct {
	cursor int
}

func (s *ascendingSelector) nextLocked(m *Manager, remaining *util.Bitset) int {
	for !m.cfg.NoWaitedHint {
		p, ok := m.waited.front()
		if !ok {
			break
		}
		if remaining.Test(p) {
			return p
		}
		// Already pulled or committed through another path; drop the hint.
		m.waited.remove(p)
	}
	p := remaining.NextSet(s.cursor)
	if p < 0 {
		// The cursor may have skipped pages committed out of band (waited
		// pages, COW copies); rescan from the start.
		p = remaining.NextSet(0)
	}
	if p >= 0 {
		s.cursor = p + 1
	}
	return p
}

// adaptiveSelector implements Algorithm 4:
//
//  1. the page the application is waiting on right now,
//  2. pages that triggered a copy-on-write in the current epoch (committing
//     them releases COW slots),
//  3. pages whose previous-epoch access type was WAIT, then COW, then
//     AVOIDED — each class ordered by earliest previous access (LastIndex),
//  4. any remaining pages (previous type AFTER, or no history), also by
//     earliest previous access, ties in ascending page order.
//
// The zero value is an empty selector; build fills it. Its slices are
// retained scratch: a Manager embeds one adaptiveSelector and rebuilds it
// in place every adaptive epoch, so the steady-state build allocates
// nothing once the scratch reaches the working-set size.
type adaptiveSelector struct {
	// classes[0..3]: WAIT, COW, AVOIDED, rest — page IDs ordered by
	// (LastIndex, page). Consumed front to back, skipping pages no longer
	// in the remaining set.
	classes [4][]int32
	heads   [4]int

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
func (s *adaptiveSelector) build(dirty *util.Bitset, lastAT []AccessType, lastIndex []int32) {
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

func (s *adaptiveSelector) nextLocked(m *Manager, remaining *util.Bitset) int {
	// Priority 1: a page the application is blocked on right now.
	for !m.cfg.NoWaitedHint {
		p, ok := m.waited.front()
		if !ok {
			break
		}
		if remaining.Test(p) {
			return p
		}
		// Already pulled or committed through another path; drop the hint.
		m.waited.remove(p)
	}
	// Priority 2: current-epoch COW pages — free their slots ASAP. Consumed
	// entries advance a head index; the backing array is reused across
	// epochs (rotation resets both), so the queue never re-grows in steady
	// state.
	for !m.cfg.NoLiveCowPriority && m.liveCowHead < len(m.liveCowQueue) {
		p := m.liveCowQueue[m.liveCowHead]
		if remaining.Test(p) {
			return p
		}
		m.liveCowHead++
	}
	// Priority 3/4: previous-epoch interference classes.
	for c := 0; c < 4; c++ {
		for s.heads[c] < len(s.classes[c]) {
			p := int(s.classes[c][s.heads[c]])
			if remaining.Test(p) {
				return p
			}
			s.heads[c]++
		}
	}
	// Defensive fallback: anything left in the set.
	return remaining.NextSet(0)
}
