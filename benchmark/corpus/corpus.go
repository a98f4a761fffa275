// Package corpus generates the benchmark's page contents. A page is a pure
// function of (seed, page, version), so workloads, kernel replays and
// rooflines all run over the same bytes, and an Oracle holding one version
// number per page can regenerate the expected image of any checkpoint
// without keeping a second copy of memory.
package corpus

import (
	"bytes"
	"encoding/binary"
)

// Kind is a compressibility class of page content.
type Kind uint8

const (
	// Stencil is a smooth field: 32-bit samples that random-walk in small
	// steps, as a stencil code's grid does. DEFLATE shrinks it to roughly
	// a third to a half.
	Stencil Kind = iota
	// Random is incompressible.
	Random
	// Zero is an all-zero page.
	Zero
	// Repeated is a short pattern tiled over the page, and it ignores the
	// version: rewriting it stores the same bytes again, which is what
	// content-addressed dedup elides.
	Repeated
	numKinds
)

func (k Kind) String() string {
	return [...]string{"stencil", "random", "zero", "repeated"}[k]
}

// Mix gives each kind's share of a region's pages, in eighths.
type Mix [numKinds]int

var (
	// AllStencil is the content of a stencil application's grid.
	AllStencil = Mix{Stencil: 8}
	// Mixed is the codec workload's region: 5/8 smooth, 2/8 random, 1/8 zero.
	Mixed = Mix{Stencil: 5, Random: 2, Zero: 1}
)

// Corpus is one seeded page universe.
type Corpus struct {
	Seed     uint64
	PageSize int
	Mix      Mix
}

// splitmix64 is the stateless mixer every derived stream starts from.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// KindOf returns the content class of a page. Classes are spread over the
// address space by hash, so any window of pages holds the mix.
func (c Corpus) KindOf(page int) Kind {
	slot := int(splitmix64(c.Seed^uint64(page)*0x2545f4914f6cdd1d) % 8)
	for k, share := range c.Mix {
		if slot < share {
			return Kind(k)
		}
		slot -= share
	}
	return Stencil // a Mix that sums to less than 8 falls back to smooth
}

// Fill writes the content of (page, version) into dst, which must be
// PageSize bytes long and a multiple of 8.
func (c Corpus) Fill(dst []byte, page int, version uint32) {
	kind := c.KindOf(page)
	state := splitmix64(splitmix64(c.Seed+uint64(page)) ^ uint64(version)<<20)
	switch kind {
	case Zero:
		clear(dst)
	case Random:
		for i := 0; i+8 <= len(dst); i += 8 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			binary.LittleEndian.PutUint64(dst[i:], state)
		}
	case Stencil:
		sample := uint32(state >> 40)
		for i := 0; i+8 <= len(dst); i += 8 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			sample += uint32(state&7) - 3
			binary.LittleEndian.PutUint32(dst[i:], sample)
			sample += uint32(state>>8&7) - 3
			binary.LittleEndian.PutUint32(dst[i+4:], sample)
		}
	case Repeated:
		var pat [16]byte
		binary.LittleEndian.PutUint64(pat[:], splitmix64(c.Seed+uint64(page)))
		binary.LittleEndian.PutUint64(pat[8:], uint64(page))
		for i := 0; i < len(dst); i += copy(dst[i:], pat[:]) {
		}
	}
}

// Perm returns a seeded permutation of [0, n); salt separates the streams
// one seed feeds.
func Perm(seed, salt uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	state := splitmix64(seed ^ splitmix64(salt))
	for i := n - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Oracle is the version table of a region: Versions[i] is the version last
// written to page i. Version 0 means never written (an all-zero page).
type Oracle struct {
	Corpus   Corpus
	Versions []uint32
	scratch  []byte
}

// NewOracle returns the oracle of an untouched region of n pages.
func NewOracle(c Corpus, n int) *Oracle {
	return &Oracle{Corpus: c, Versions: make([]uint32, n), scratch: make([]byte, c.PageSize)}
}

// Snapshot copies the version table; take one at every Checkpoint to keep
// the expected image of that checkpoint.
func (o *Oracle) Snapshot() *Oracle {
	s := NewOracle(o.Corpus, len(o.Versions))
	copy(s.Versions, o.Versions)
	return s
}

// Expected regenerates the expected content of page i into an internal
// buffer that the next call overwrites.
func (o *Oracle) Expected(i int) []byte {
	if o.Versions[i] == 0 {
		clear(o.scratch)
	} else {
		o.Corpus.Fill(o.scratch, i, o.Versions[i])
	}
	return o.scratch
}

// Mismatches counts the pages of image (a region's bytes, page i at offset
// i*PageSize) that differ from the expected image.
func (o *Oracle) Mismatches(image []byte) int {
	ps := o.Corpus.PageSize
	bad := 0
	for i := range o.Versions {
		if !bytes.Equal(image[i*ps:(i+1)*ps], o.Expected(i)) {
			bad++
		}
	}
	return bad
}
