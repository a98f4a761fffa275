package ckpt

import (
	"maps"
	"reflect"
	"slices"
	"testing"
)

// pageAt returns the content a set holds for page id, nil for a hole — what
// indexing the page map used to give the tests.
func pageAt(s *PageSet, id int) []byte {
	data, _ := s.Get(id)
	return data
}

// pageSetOf builds a set from a map literal.
func pageSetOf(m map[int][]byte) *PageSet {
	s := NewPageSet(len(m))
	for _, id := range slices.Sorted(maps.Keys(m)) {
		s.Append(id, m[id])
	}
	return &s
}

// rec is one appended record; its one payload byte names it.
type rec struct {
	id  int
	tag byte
}

// setOf builds a set from records in any order, a later record of an id
// replacing an earlier one.
func setOf(recs []rec) *PageSet {
	m := map[int][]byte{}
	for _, r := range recs {
		m[r.id] = []byte{r.tag}
	}
	return pageSetOf(m)
}

// contents lists a set as records, through the ordered iterator.
func contents(s *PageSet) []rec {
	out := []rec{}
	for id, data := range s.All() {
		out = append(out, rec{id, data[0]})
	}
	return out
}

// A segment's records are in flush order; reading the epoch back hands over
// a set in page order, a page written twice keeping its later record.
func TestPageSetSortAndGet(t *testing.T) {
	for _, tc := range []struct {
		name   string
		append []rec // WritePage calls, in flush order
		want   []rec // iteration order of the set read back
		holes  []int
	}{
		{"empty", nil, []rec{}, []int{0, 7}},
		{"already ascending", []rec{{1, 'a'}, {4, 'b'}, {9, 'c'}}, []rec{{1, 'a'}, {4, 'b'}, {9, 'c'}}, []int{0, 2, 10}},
		{"flush order", []rec{{9, 'c'}, {1, 'a'}, {4, 'b'}}, []rec{{1, 'a'}, {4, 'b'}, {9, 'c'}}, []int{3, 5}},
		{"duplicate keeps the later record", []rec{{4, 'x'}, {1, 'a'}, {4, 'y'}, {4, 'z'}}, []rec{{1, 'a'}, {4, 'z'}}, []int{2}},
		{"adjacent duplicate in ascending input", []rec{{1, 'a'}, {1, 'b'}, {2, 'c'}}, []rec{{1, 'b'}, {2, 'c'}}, []int{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pageSize = 16
			fs := &MemFS{}
			r := NewRepository(fs, pageSize)
			for _, w := range tc.append {
				if err := r.WritePage(1, w.id, page(w.tag, pageSize), pageSize); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.EndEpoch(1); err != nil {
				t.Fatal(err)
			}
			_, set, err := EpochPages(fs, 1)
			if err != nil {
				t.Fatal(err)
			}
			s := &set
			if got := contents(s); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("iteration = %v, want %v", got, tc.want)
			}
			if s.Len() != len(tc.want) || len(s.IDs()) != len(tc.want) {
				t.Fatalf("Len = %d, IDs = %v, want %d entries", s.Len(), s.IDs(), len(tc.want))
			}
			for _, r := range tc.want {
				if data, ok := s.Get(r.id); !ok || data[0] != r.tag {
					t.Errorf("Get(%d) = %q, %v; want %q", r.id, data, ok, r.tag)
				}
			}
			for _, id := range tc.holes {
				if data, ok := s.Get(id); ok || data != nil {
					t.Errorf("Get(%d) = %q, %v; want a hole", id, data, ok)
				}
			}
		})
	}
}

func TestPageSetMerge(t *testing.T) {
	for _, tc := range []struct {
		name         string
		older, newer []rec
		want         []rec
	}{
		{"both empty", nil, nil, []rec{}},
		{"into empty", nil, []rec{{2, 'n'}, {5, 'n'}}, []rec{{2, 'n'}, {5, 'n'}}},
		{"empty newer", []rec{{2, 'o'}, {5, 'o'}}, nil, []rec{{2, 'o'}, {5, 'o'}}},
		{"newest wins in place", []rec{{1, 'o'}, {2, 'o'}, {3, 'o'}}, []rec{{1, 'n'}, {3, 'n'}}, []rec{{1, 'n'}, {2, 'o'}, {3, 'n'}}},
		{"disjoint interleaved", []rec{{2, 'o'}, {4, 'o'}}, []rec{{1, 'n'}, {3, 'n'}, {5, 'n'}}, []rec{{1, 'n'}, {2, 'o'}, {3, 'n'}, {4, 'o'}, {5, 'n'}}},
		{"overwrite and insert", []rec{{2, 'o'}, {4, 'o'}, {6, 'o'}}, []rec{{0, 'n'}, {4, 'n'}, {5, 'n'}, {9, 'n'}}, []rec{{0, 'n'}, {2, 'o'}, {4, 'n'}, {5, 'n'}, {6, 'o'}, {9, 'n'}}},
		{"all below", []rec{{7, 'o'}, {8, 'o'}}, []rec{{1, 'n'}, {2, 'n'}}, []rec{{1, 'n'}, {2, 'n'}, {7, 'o'}, {8, 'o'}}},
		{"all above", []rec{{1, 'o'}, {2, 'o'}}, []rec{{7, 'n'}, {8, 'n'}}, []rec{{1, 'o'}, {2, 'o'}, {7, 'n'}, {8, 'n'}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, newer := setOf(tc.older), setOf(tc.newer)
			moved := map[int]*byte{}
			for id, data := range newer.All() {
				moved[id] = &data[0]
			}
			s.Merge(newer)
			if got := contents(s); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("merged = %v, want %v", got, tc.want)
			}
			// Headers move, bytes do not: a page that came from newer is
			// the very array newer held.
			for id, p := range moved {
				if data, _ := s.Get(id); &data[0] != p {
					t.Errorf("page %d was copied, not moved", id)
				}
			}
		})
	}
}

func TestPageSetEqual(t *testing.T) {
	a := setOf([]rec{{1, 'a'}, {2, 'b'}})
	for _, tc := range []struct {
		name  string
		other []rec
		want  bool
	}{
		{"same", []rec{{2, 'b'}, {1, 'a'}}, true},
		{"other bytes", []rec{{1, 'a'}, {2, 'x'}}, false},
		{"other id", []rec{{1, 'a'}, {3, 'b'}}, false},
		{"shorter", []rec{{1, 'a'}}, false},
	} {
		if got := a.Equal(setOf(tc.other)); got != tc.want {
			t.Errorf("%s: Equal = %v, want %v", tc.name, got, tc.want)
		}
	}
}
