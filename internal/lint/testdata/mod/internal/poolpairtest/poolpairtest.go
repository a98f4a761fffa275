// Package poolpairtest exercises the poolpair analyzer: leaked Gets, the
// defer and per-branch release shapes, and //aickpt:allow handoffs.
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
	h.buf = bufPool.Get().(*[]byte) //aickpt:allow poolpair released by the holder's owner
}
