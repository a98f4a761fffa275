package util

import (
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Count() != 0 {
		t.Fatalf("new bitset count = %d, want 0", b.Count())
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(129)
	if got := b.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.Test(i) {
			t.Errorf("Test(%d) = false, want true", i)
		}
	}
	if b.Test(1) || b.Test(128) {
		t.Error("unexpected bits set")
	}
	b.Clear(63)
	if b.Test(63) {
		t.Error("Clear(63) did not clear")
	}
	if got := b.Count(); got != 3 {
		t.Fatalf("count after clear = %d, want 3", got)
	}
}

func TestBitsetNextSet(t *testing.T) {
	b := NewBitset(200)
	for _, i := range []int{5, 70, 199} {
		b.Set(i)
	}
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 70}, {70, 70}, {71, 199}, {199, 199}, {-3, 5},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	b.Clear(199)
	if got := b.NextSet(71); got != -1 {
		t.Errorf("NextSet(71) = %d, want -1", got)
	}
	if got := b.NextSet(500); got != -1 {
		t.Errorf("NextSet past end = %d, want -1", got)
	}
}

func TestBitsetReset(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 300} {
		b := NewBitset(n)
		for i := 0; i < n; i++ {
			b.Set(i)
		}
		if got := b.Count(); got != n {
			t.Errorf("n=%d: count = %d", n, got)
		}
		b.Reset()
		if got := b.Count(); got != 0 {
			t.Errorf("n=%d: reset count = %d", n, got)
		}
	}
}

func TestBitsetCloneIndependent(t *testing.T) {
	b := NewBitset(64)
	b.Set(10)
	c := b.Clone()
	c.Set(20)
	if b.Test(20) {
		t.Error("clone mutation leaked into original")
	}
	if !c.Test(10) {
		t.Error("clone missing original bit")
	}
	d := NewBitset(64)
	d.CopyFrom(b)
	if !d.Test(10) || d.Count() != 1 {
		t.Error("CopyFrom mismatch")
	}
}

func TestBitsetOutOfRangePanics(t *testing.T) {
	b := NewBitset(10)
	for _, f := range []func(){
		func() { b.Set(10) },
		func() { b.Set(-1) },
		func() { b.Test(11) },
		func() { b.Clear(-2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range access")
				}
			}()
			f()
		}()
	}
}

// Property: the set of indices reported via Test matches what was inserted,
// and Count agrees, for arbitrary insert/delete sequences.
func TestBitsetQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 512
		b := NewBitset(n)
		ref := map[int]bool{}
		for _, op := range ops {
			idx := int(op) % n
			if op&0x8000 != 0 {
				b.Clear(idx)
				delete(ref, idx)
			} else {
				b.Set(idx)
				ref[idx] = true
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Test(i) != ref[i] {
				return false
			}
		}
		// NextSet walk must enumerate exactly the reference set.
		seen := 0
		for i := b.NextSet(0); i != -1; i = b.NextSet(i + 1) {
			if !ref[i] {
				return false
			}
			seen++
		}
		return seen == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
