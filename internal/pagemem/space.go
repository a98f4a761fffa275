// Package pagemem provides the protected-memory substrate of AI-Ckpt: paged
// regions whose first write after protection triggers a fault handler.
//
// The paper traps writes with mprotect+SIGSEGV. A Go runtime cannot safely
// interpose on its own segfault handler, so pagemem implements the same
// trap semantics in software: all application stores go through Region
// write methods, which check a per-page protection bit and synchronously
// invoke the registered handler before the store proceeds — exactly the
// sequence the kernel performs for a write-protected page. See DESIGN.md §2.
//
// Regions may be "phantom" (no backing bytes): the evaluation harness uses
// phantom regions to simulate hundreds of GB of aggregate protected memory
// while modeling only timing.
package pagemem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// FaultHandler is called on the first write to a protected page, identified
// by its global page ID. The handler runs before the store proceeds and is
// responsible for clearing the page's protection (via Space.Unprotect); if
// it does not, every subsequent write faults again.
type FaultHandler func(page int)

// Space is an address space of protected regions sharing one page size and
// one fault handler. A Space is safe for concurrent use by multiple
// application threads in real-time mode; under the simulation kernel all
// accesses are naturally serialized.
type Space struct {
	pageSize int

	mu       sync.RWMutex
	regions  []*Region // sorted by firstPage, live only
	nextPage int
	nextID   int

	// writeGate orders page stores against epoch rotation: every store
	// holds it shared for the fault-check-plus-copy of one page, and the
	// checkpoint's protect-all holds it exclusively, so a store that
	// passed its fault check can never race a flush that begins
	// afterwards (which would let the committer capture a torn page).
	writeGate sync.RWMutex

	handler atomic.Pointer[FaultHandler]
}

// NewSpace returns an empty space with the given page size.
func NewSpace(pageSize int) *Space {
	if pageSize <= 0 {
		panic(fmt.Sprintf("pagemem: invalid page size %d", pageSize))
	}
	return &Space{pageSize: pageSize}
}

// PageSize returns the page size in bytes.
func (s *Space) PageSize() int { return s.pageSize }

// NumPages returns the high-water mark of allocated global page IDs
// (freed regions' IDs are not reused).
func (s *Space) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextPage
}

// SetFaultHandler installs h as the write-fault handler.
func (s *Space) SetFaultHandler(h FaultHandler) {
	if h == nil {
		s.handler.Store(nil)
		return
	}
	s.handler.Store(&h)
}

// Alloc creates a protected region of n bytes (rounded up to whole pages).
// If phantom is true the region has no backing bytes and only its access
// metadata exists. New regions start fully write-protected, as required by
// the design ("initially, any new protected memory region is marked as
// read-only").
func (s *Space) Alloc(n int, phantom bool) *Region {
	if n <= 0 {
		panic(fmt.Sprintf("pagemem: invalid allocation size %d", n))
	}
	pages := (n + s.pageSize - 1) / s.pageSize
	r := &Region{
		space:     s,
		numPages:  pages,
		sizeBytes: n,
		prot:      make([]uint32, (pages+31)/32),
	}
	if !phantom {
		r.data = make([]byte, pages*s.pageSize)
	}
	for i := range r.prot {
		r.prot[i] = ^uint32(0)
	}
	s.mu.Lock()
	r.id = s.nextID
	s.nextID++
	r.firstPage = s.nextPage
	s.nextPage += pages
	s.regions = append(s.regions, r)
	s.mu.Unlock()
	return r
}

// lookup resolves a global page ID to its live region, or nil if the page
// belongs to no live region.
func (s *Space) lookup(page int) *Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := sort.Search(len(s.regions), func(i int) bool {
		return s.regions[i].firstPage+s.regions[i].numPages > page
	})
	if i < len(s.regions) && s.regions[i].firstPage <= page {
		return s.regions[i]
	}
	return nil
}

// Unprotect clears a page's write protection.
func (s *Space) Unprotect(page int) {
	if r := s.lookup(page); r != nil {
		r.setProt(page-r.firstPage, false)
	}
}

// IsProtected reports whether the page is currently write-protected.
func (s *Space) IsProtected(page int) bool {
	r := s.lookup(page)
	return r != nil && r.protBit(page-r.firstPage)
}

// PageData returns the backing bytes of a page, or nil for phantom or freed
// pages. The returned slice aliases the region's memory.
func (s *Space) PageData(page int) []byte {
	r := s.lookup(page)
	if r == nil || r.data == nil {
		return nil
	}
	off := (page - r.firstPage) * s.pageSize
	return r.data[off : off+s.pageSize]
}

// ProtectLiveRegions write-protects every live region in one pass, calling
// f with each region's global page range [first, first+count) after its
// pages are protected. CHECKPOINT uses it to re-protect the whole space at
// epoch rotation: protection is set a whole bitmap word at a time per
// region, and f lets the caller batch-reset its own per-page bookkeeping
// for the same range — where protecting page by page would redo the
// region lookup (lock + binary search) for every single page while the
// application is blocked on the write gate. f may be nil.
func (s *Space) ProtectLiveRegions(f func(first, count int)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.regions {
		r.protectAll()
		if f != nil {
			f(r.firstPage, r.numPages)
		}
	}
}

// LockWrites blocks until no page store is in flight and prevents new ones;
// the page manager holds it while re-protecting the space at a checkpoint.
func (s *Space) LockWrites() { s.writeGate.Lock() }

// UnlockWrites releases LockWrites.
func (s *Space) UnlockWrites() { s.writeGate.Unlock() }

// release removes a region from the space (called by Region.Free).
func (s *Space) release(r *Region) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, reg := range s.regions {
		if reg == r {
			s.regions = append(s.regions[:i], s.regions[i+1:]...)
			return
		}
	}
}
