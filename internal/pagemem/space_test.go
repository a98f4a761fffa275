package pagemem

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/util"
)

func TestAllocStartsProtected(t *testing.T) {
	s := NewSpace(64)
	r := s.Alloc(200, false) // 4 pages
	first, count := r.Pages()
	if first != 0 || count != 4 {
		t.Fatalf("pages = %d,%d", first, count)
	}
	for i := 0; i < count; i++ {
		if !s.IsProtected(first + i) {
			t.Errorf("page %d not protected after alloc", i)
		}
	}
	if r.Size() != 200 {
		t.Errorf("size = %d", r.Size())
	}
}

func TestWriteFaultsOncePerPage(t *testing.T) {
	s := NewSpace(16)
	r := s.Alloc(64, false) // 4 pages
	var faults []int
	s.SetFaultHandler(func(page int) {
		faults = append(faults, page)
		s.Unprotect(page)
	})
	r.Write(0, make([]byte, 20)) // spans pages 0,1
	r.Write(4, []byte{1, 2})     // page 0 again: no fault
	r.StoreByte(50, 9)           // page 3
	if len(faults) != 3 || faults[0] != 0 || faults[1] != 1 || faults[2] != 3 {
		t.Errorf("faults = %v", faults)
	}
	// Re-protect and write again: faults again.
	s.ProtectLiveRegions(nil)
	r.StoreByte(3, 1)
	if len(faults) != 4 || faults[3] != 0 {
		t.Errorf("faults after re-protect = %v", faults)
	}
}

func TestFaultSeesPreWriteContent(t *testing.T) {
	s := NewSpace(8)
	r := s.Alloc(8, false)
	var snapshot []byte
	s.SetFaultHandler(func(page int) {
		snapshot = append([]byte(nil), s.PageData(page)...)
		s.Unprotect(page)
	})
	r.Write(0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if !bytes.Equal(snapshot, make([]byte, 8)) {
		t.Errorf("handler saw post-write content: %v", snapshot)
	}
	got := make([]byte, 8)
	r.Read(0, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("read back %v", got)
	}
}

func TestNoHandlerActsUnprotected(t *testing.T) {
	s := NewSpace(16)
	r := s.Alloc(16, false)
	r.Write(0, []byte{42}) // must not panic
	if s.IsProtected(0) {
		t.Error("page still protected after unhandled fault")
	}
}

func TestPhantomRegionTouch(t *testing.T) {
	s := NewSpace(4096)
	r := s.Alloc(3*4096, true)
	var faults int
	s.SetFaultHandler(func(page int) {
		faults++
		s.Unprotect(page)
	})
	for i := 0; i < 3; i++ {
		r.Touch(i)
		r.Touch(i)
	}
	if faults != 3 {
		t.Errorf("faults = %d, want 3", faults)
	}
	if s.PageData(0) != nil {
		t.Error("phantom region has page data")
	}
	defer func() {
		if recover() == nil {
			t.Error("Write on phantom region should panic")
		}
	}()
	r.Write(0, []byte{1})
}

func TestMultipleRegionsGlobalIDs(t *testing.T) {
	s := NewSpace(32)
	a := s.Alloc(64, false) // pages 0,1
	b := s.Alloc(32, false) // page 2
	af, ac := a.Pages()
	bf, bc := b.Pages()
	if af != 0 || ac != 2 || bf != 2 || bc != 1 {
		t.Fatalf("ranges: a=%d+%d b=%d+%d", af, ac, bf, bc)
	}
	if s.NumPages() != 3 {
		t.Errorf("NumPages = %d", s.NumPages())
	}
	if live := liveRanges(s); len(live) != 2 || live[0] != [2]int{0, 2} || live[1] != [2]int{2, 1} {
		t.Errorf("live ranges = %v", live)
	}
}

// liveRanges lists the [first, count) page ranges of s's live regions.
func liveRanges(s *Space) [][2]int {
	var out [][2]int
	s.ProtectLiveRegions(func(first, count int) { out = append(out, [2]int{first, count}) })
	return out
}

func TestFreeRemovesPages(t *testing.T) {
	s := NewSpace(32)
	a := s.Alloc(64, false)
	b := s.Alloc(64, false)
	a.Free()
	if s.PageData(0) != nil || s.PageData(2) == nil {
		t.Error("liveness wrong after free")
	}
	if live := liveRanges(s); len(live) != 1 || live[0] != [2]int{2, 2} {
		t.Errorf("live ranges after free = %v", live)
	}
	// Page IDs are not reused.
	c := s.Alloc(32, false)
	cf, _ := c.Pages()
	if cf != 4 {
		t.Errorf("new region first page = %d, want 4", cf)
	}
	a.Free() // double free is a no-op
	b.Free()
	defer func() {
		if recover() == nil {
			t.Error("access to freed region should panic")
		}
	}()
	b.Touch(0)
}

func TestWriteBounds(t *testing.T) {
	s := NewSpace(16)
	r := s.Alloc(32, false)
	for _, f := range []func(){
		func() { r.Write(-1, []byte{1}) },
		func() { r.Write(30, []byte{1, 2, 3}) },
		func() { r.Read(33, make([]byte, 1)) },
		func() { r.StoreByte(32, 1) },
		func() { r.Touch(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected bounds panic")
				}
			}()
			f()
		}()
	}
}

// Property: writing an arbitrary pattern through Region.Write (with a
// handler that unprotects) and reading it back returns the same bytes, and
// the set of faulted pages is exactly the set of pages covered by writes.
func TestWriteReadQuick(t *testing.T) {
	type op struct {
		off  int
		data []byte
	}
	f := func(seed uint64) bool {
		rng := util.NewRNG(seed)
		const pageSize, size = 32, 512
		s := NewSpace(pageSize)
		r := s.Alloc(size, false)
		faulted := map[int]bool{}
		s.SetFaultHandler(func(p int) {
			faulted[p] = true
			s.Unprotect(p)
		})
		ref := make([]byte, size)
		covered := map[int]bool{}
		for i := 0; i < 20; i++ {
			off := rng.Intn(size)
			n := rng.Intn(size - off)
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(rng.Uint64())
			}
			r.Write(off, data)
			copy(ref[off:], data)
			for p := off / pageSize; p <= (off+n-1)/pageSize && n > 0; p++ {
				covered[p] = true
			}
		}
		got := make([]byte, size)
		r.Read(0, got)
		if !bytes.Equal(got, ref) {
			return false
		}
		if len(faulted) != len(covered) {
			return false
		}
		for p := range covered {
			if !faulted[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProtectLiveRegionsBatches(t *testing.T) {
	s := NewSpace(64)
	a := s.Alloc(64*4, false) // pages 0-3
	b := s.Alloc(64*3, false) // pages 4-6
	c := s.Alloc(64*2, false) // pages 7-8
	for p := 0; p < 9; p++ {
		s.Unprotect(p)
	}
	b.Free()
	var ranges [][2]int
	s.ProtectLiveRegions(func(first, count int) {
		ranges = append(ranges, [2]int{first, count})
	})
	want := [][2]int{{0, 4}, {7, 2}}
	if len(ranges) != len(want) || ranges[0] != want[0] || ranges[1] != want[1] {
		t.Fatalf("ranges = %v, want %v", ranges, want)
	}
	for _, r := range []*Region{a, c} {
		first, count := r.Pages()
		for p := first; p < first+count; p++ {
			if !s.IsProtected(p) {
				t.Errorf("live page %d not protected", p)
			}
		}
	}
	// After a batch protect the next write to every live page faults
	// exactly once.
	faults := map[int]int{}
	s.SetFaultHandler(func(p int) {
		faults[p]++
		s.Unprotect(p)
	})
	for i := 0; i < 2; i++ {
		a.StoreByte(0, 1)  // page 0
		c.StoreByte(64, 2) // page 8
	}
	if faults[0] != 1 || faults[8] != 1 {
		t.Errorf("fault counts = %v, want one fault each for pages 0 and 8", faults)
	}
}

func TestProtectLiveRegionsNilCallback(t *testing.T) {
	s := NewSpace(64)
	r := s.Alloc(64*2, false)
	first, count := r.Pages()
	for p := first; p < first+count; p++ {
		s.Unprotect(p)
	}
	s.ProtectLiveRegions(nil)
	for p := first; p < first+count; p++ {
		if !s.IsProtected(p) {
			t.Errorf("page %d not protected", p)
		}
	}
}
