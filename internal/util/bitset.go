// Package util provides small allocation-free building blocks shared by the
// AI-Ckpt runtime and its simulation substrates: fixed-size bitsets, a
// deterministic random number generator and the page hash.
package util

import (
	"fmt"
	"math/bits"
)

// Bitset is a fixed-capacity set of small non-negative integers. The zero
// value is an empty set of capacity zero; use NewBitset to size it.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset able to hold values in [0, n).
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic(fmt.Sprintf("util: negative bitset size %d", n))
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the bitset (the n given to NewBitset).
func (b *Bitset) Len() int { return b.n }

func (b *Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("util: bitset index %d out of range [0,%d)", i, b.n))
	}
}

// Set adds i to the set.
func (b *Bitset) Set(i int) {
	b.check(i)
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear removes i from the set.
func (b *Bitset) Clear(i int) {
	b.check(i)
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Test reports whether i is in the set.
func (b *Bitset) Test(i int) bool {
	b.check(i)
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of elements in the set.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset removes all elements.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// NextSet returns the smallest element >= from, or -1 if none exists.
func (b *Bitset) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return -1
	}
	wi := from >> 6
	w := b.words[wi] >> uint(from&63)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// Grow extends the bitset's capacity to n, preserving existing bits. It is
// a no-op if n <= Len().
func (b *Bitset) Grow(n int) {
	if n <= b.n {
		return
	}
	words := make([]uint64, (n+63)/64)
	copy(words, b.words)
	b.words = words
	b.n = n
}

// CopyFrom makes b an exact copy of src. The two bitsets must have the same
// capacity.
func (b *Bitset) CopyFrom(src *Bitset) {
	if b.n != src.n {
		panic(fmt.Sprintf("util: bitset size mismatch %d != %d", b.n, src.n))
	}
	copy(b.words, src.words)
}

// Clone returns an independent copy of b.
func (b *Bitset) Clone() *Bitset {
	c := NewBitset(b.n)
	copy(c.words, b.words)
	return c
}
