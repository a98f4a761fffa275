package pagemem

import (
	"fmt"
	"sync/atomic"
)

// Region is a page-aligned protected allocation. Application code reads and
// writes it through the methods below; writes to protected pages fault into
// the space's handler first, exactly like a store to an mprotect'ed page.
type Region struct {
	space     *Space
	id        int
	firstPage int
	numPages  int
	sizeBytes int
	data      []byte   // nil for phantom regions
	prot      []uint32 // atomic protection bitmap, one bit per page
	freed     atomic.Bool
}

// Size returns the requested allocation size in bytes.
func (r *Region) Size() int { return r.sizeBytes }

// Pages returns the global page range [first, first+count) of the region.
func (r *Region) Pages() (first, count int) { return r.firstPage, r.numPages }

func (r *Region) protBit(i int) bool {
	return atomic.LoadUint32(&r.prot[i>>5])&(1<<uint(i&31)) != 0
}

func (r *Region) setProt(i int, on bool) {
	for {
		old := atomic.LoadUint32(&r.prot[i>>5])
		var next uint32
		if on {
			next = old | 1<<uint(i&31)
		} else {
			next = old &^ (1 << uint(i&31))
		}
		if old == next || atomic.CompareAndSwapUint32(&r.prot[i>>5], old, next) {
			return
		}
	}
}

// protectAll write-protects every page of the region, one bitmap word at a
// time (bits past numPages are set too, matching Alloc; they are never
// read). Concurrent faulting writers observe each word's flip atomically,
// and the caller (epoch rotation) holds the space's write gate, so no
// store that already passed its fault check is in flight.
func (r *Region) protectAll() {
	for i := range r.prot {
		atomic.StoreUint32(&r.prot[i], ^uint32(0))
	}
}

// fault runs the write-fault path for region page i if it is protected.
func (r *Region) fault(i int) {
	if !r.protBit(i) {
		return
	}
	if h := r.space.handler.Load(); h != nil {
		(*h)(r.firstPage + i)
		return
	}
	// No manager installed: behave like unprotected memory.
	r.setProt(i, false)
}

func (r *Region) checkLive(op string) {
	if r.freed.Load() {
		panic(fmt.Sprintf("pagemem: %s on freed region %d", op, r.id))
	}
}

// Touch simulates a store to region page i without transferring bytes; it
// triggers the fault path if the page is protected. Phantom workloads drive
// the checkpointing runtime entirely through Touch.
func (r *Region) Touch(i int) {
	r.checkLive("Touch")
	if i < 0 || i >= r.numPages {
		panic(fmt.Sprintf("pagemem: Touch page %d out of range [0,%d)", i, r.numPages))
	}
	r.space.writeGate.RLock()
	r.fault(i)
	r.space.writeGate.RUnlock()
}

// Write copies src into the region at byte offset off, faulting each
// covered protected page before its bytes are modified (so a copy-on-write
// taken in the handler captures the pre-write image). It panics on phantom
// regions and out-of-range accesses.
func (r *Region) Write(off int, src []byte) {
	r.checkLive("Write")
	if r.data == nil {
		panic("pagemem: Write on phantom region")
	}
	if off < 0 || off+len(src) > r.sizeBytes {
		panic(fmt.Sprintf("pagemem: Write [%d,%d) out of range [0,%d)", off, off+len(src), r.sizeBytes))
	}
	ps := r.space.pageSize
	for len(src) > 0 {
		page := off / ps
		chunk := (page+1)*ps - off
		if chunk > len(src) {
			chunk = len(src)
		}
		r.space.writeGate.RLock()
		r.fault(page)
		copy(r.data[off:off+chunk], src[:chunk])
		r.space.writeGate.RUnlock()
		off += chunk
		src = src[chunk:]
	}
}

// StoreByte stores a single byte at off (convenience for byte-granular
// benchmark loops).
func (r *Region) StoreByte(off int, b byte) {
	r.checkLive("StoreByte")
	if r.data == nil {
		panic("pagemem: StoreByte on phantom region")
	}
	if off < 0 || off >= r.sizeBytes {
		panic(fmt.Sprintf("pagemem: StoreByte offset %d out of range", off))
	}
	r.space.writeGate.RLock()
	r.fault(off / r.space.pageSize)
	r.data[off] = b
	r.space.writeGate.RUnlock()
}

// Read copies region bytes [off, off+len(dst)) into dst. Reads never fault
// (read access is always permitted, as in the paper).
func (r *Region) Read(off int, dst []byte) {
	r.checkLive("Read")
	if r.data == nil {
		panic("pagemem: Read on phantom region")
	}
	if off < 0 || off+len(dst) > r.sizeBytes {
		panic(fmt.Sprintf("pagemem: Read [%d,%d) out of range [0,%d)", off, off+len(dst), r.sizeBytes))
	}
	copy(dst, r.data[off:off+len(dst)])
}

// Bytes returns the region's backing store (nil for phantom regions). The
// slice aliases live memory; mutating it bypasses protection. It exists for
// checkpoint restore, which rebuilds memory images in place.
func (r *Region) Bytes() []byte { return r.data }

// Free releases the region: its pages leave the space and all further
// access panics. When the region is managed by a checkpoint manager, free
// it through the manager instead so in-flight commits complete first.
func (r *Region) Free() {
	if r.freed.Swap(true) {
		return
	}
	r.space.release(r)
}
