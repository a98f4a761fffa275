// Package poolpairtest exercises the poolpair analyzer: leaked Gets, the
// defer and per-branch release shapes, //aickpt:allow handoffs, and functions
// annotated //aickpt:acquire / //aickpt:release.
package poolpairtest

import "sync"

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

type holder struct{ buf *[]byte }

// leaks takes a buffer and never returns it.
func leaks() int {
	buf := bufPool.Get().(*[]byte) // want `bufPool acquire is not released`
	return len(*buf)
}

// balancedDefer releases on every path through one defer.
func balancedDefer() int {
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	return len(*buf)
}

// balancedBranches releases on each return path explicitly.
func balancedBranches(fail bool) int {
	buf := bufPool.Get().(*[]byte)
	if fail {
		bufPool.Put(buf)
		return 0
	}
	n := len(*buf)
	bufPool.Put(buf)
	return n
}

// handsOff stages the buffer into a struct released elsewhere.
func handsOff(h *holder) {
	h.buf = bufPool.Get().(*[]byte) //aickpt:allow poolpair released by (*holder).drop
}

// drop is the matching release of handsOff's buffer.
//
//aickpt:release bufPool
func drop(h *holder) {
	if h.buf != nil {
		bufPool.Put(h.buf)
		h.buf = nil
	}
}

// borrow is an annotated acquire wrapper: callers inherit the obligation.
//
//aickpt:acquire bufPool
func borrow() *[]byte {
	return bufPool.Get().(*[]byte) //aickpt:allow poolpair returned to the caller
}

// viaWrappers uses the annotated pair; balance holds through them.
func viaWrappers(h *holder) int {
	h.buf = borrow() // want `bufPool acquire is not released`
	return len(*h.buf)
}

// viaWrappersBalanced pairs the annotated acquire with the annotated release.
func viaWrappersBalanced(h *holder) int {
	h.buf = borrow()
	n := len(*h.buf)
	drop(h)
	return n
}
