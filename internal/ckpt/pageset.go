package ckpt

import (
	"bytes"
	"iter"
	"slices"
	"sort"
)

// PageSet is what pages travel in on the read side: ascending page ids and,
// index for index, their content. Lookup is a binary search, iteration is in
// page order, and folding a newer set over an older one moves slice headers,
// never page bytes. Every payload stays its own allocation, so a page a
// newer set supersedes is collectable the moment Merge drops its header: a
// set never pins the segment it was read from. The zero value is an empty
// set. A PageSet is not safe for concurrent mutation.
type PageSet struct {
	ids   []int
	pages [][]byte
}

// NewPageSet returns an empty set with room for n pages.
func NewPageSet(n int) PageSet {
	return PageSet{ids: make([]int, 0, n), pages: make([][]byte, 0, n)}
}

// Len returns the number of pages in the set.
func (s *PageSet) Len() int { return len(s.ids) }

// IDs returns the page ids in ascending order. The slice is the set's own:
// treat it as read-only.
func (s *PageSet) IDs() []int { return s.ids }

// Get returns the content of page id, or ok=false when the set has a hole
// there.
func (s *PageSet) Get(id int) (data []byte, ok bool) {
	if i := sort.SearchInts(s.ids, id); i < len(s.ids) && s.ids[i] == id {
		return s.pages[i], true
	}
	return nil, false
}

// All iterates the set in ascending page order.
func (s *PageSet) All() iter.Seq2[int, []byte] {
	return func(yield func(int, []byte) bool) {
		for i, id := range s.ids {
			if !yield(id, s.pages[i]) {
				return
			}
		}
	}
}

// Equal reports whether both sets hold the same pages with the same bytes.
func (s *PageSet) Equal(o *PageSet) bool {
	return slices.Equal(s.ids, o.ids) && slices.EqualFunc(s.pages, o.pages, bytes.Equal)
}

// Append adds a page above every page already in the set: ids must be
// appended in ascending order. The set keeps data, not a copy.
func (s *PageSet) Append(id int, data []byte) {
	s.ids = append(s.ids, id)
	s.pages = append(s.pages, data)
}

// Merge folds newer over s, newest content wins: a page in both takes
// newer's content, a page only in newer is inserted in order. Only slice
// headers move. newer's payloads now belong to s; the caller must not use
// newer again.
func (s *PageSet) Merge(newer *PageSet) {
	if len(s.ids) == 0 {
		*s = *newer
		return
	}
	// Overwrite the pages s already has in place and count the rest. Both
	// id lists ascend, so each search starts where the previous one ended.
	add, lo := 0, 0
	for j, id := range newer.ids {
		lo += sort.SearchInts(s.ids[lo:], id)
		if lo < len(s.ids) && s.ids[lo] == id {
			s.pages[lo] = newer.pages[j]
		} else {
			add++
		}
	}
	if add == 0 {
		return
	}
	// Make room for the new ids and merge from the back, so every header
	// moves at most once and nothing is overwritten before it is read.
	i, j := len(s.ids)-1, len(newer.ids)-1
	s.ids = slices.Grow(s.ids, add)[:len(s.ids)+add]
	s.pages = slices.Grow(s.pages, add)[:len(s.pages)+add]
	for k := len(s.ids) - 1; j >= 0; k-- {
		switch {
		case i >= 0 && s.ids[i] > newer.ids[j]:
			s.ids[k], s.pages[k] = s.ids[i], s.pages[i]
			i--
		case i >= 0 && s.ids[i] == newer.ids[j]:
			i--
			fallthrough
		default:
			s.ids[k], s.pages[k] = newer.ids[j], newer.pages[j]
			j--
		}
	}
}
