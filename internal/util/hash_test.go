package util

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
	"testing"
)

// TestFnv64aMatchesStdlib pins the inline hasher to hash/fnv bit for bit:
// the on-disk record hashes and the dedup index depend on the two never
// diverging.
func TestFnv64aMatchesStdlib(t *testing.T) {
	rng := NewRNG(7)
	inputs := [][]byte{nil, {}, {0}, {0xff}, []byte("aickpt")}
	for _, n := range []int{1, 63, 64, 65, 4096} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Uint64())
		}
		inputs = append(inputs, buf)
	}
	for _, in := range inputs {
		h := fnv.New64a()
		h.Write(in)
		if got, want := Fnv64a(in), h.Sum64(); got != want {
			t.Fatalf("Fnv64a(%d bytes) = %#x, stdlib %#x", len(in), got, want)
		}
	}
}

// TestAllocGateFnv64a gates the steady-state hash at zero allocations.
func TestAllocGateFnv64a(t *testing.T) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i * 31)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() {
		sink += Fnv64a(page)
	})
	if allocs != 0 {
		t.Fatalf("Fnv64a allocated %.2f times per run, want 0", allocs)
	}
	_ = sink
}

// TestAllocGateContentHash gates the content hash at zero allocations.
func TestAllocGateContentHash(t *testing.T) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i * 31)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() {
		sink += Xxh64(page)
	})
	if allocs != 0 {
		t.Fatalf("Xxh64 allocated %.2f times per run, want 0", allocs)
	}
	_ = sink
}

// xxh64Stream is a streaming XXH64 written from the specification
// independently of Xxh64: it buffers input into 32-byte stripes, so a test
// can feed it in pieces of any size and compare digests.
type xxh64Stream struct {
	v     [4]uint64
	buf   [32]byte
	nbuf  int
	total uint64
}

func newXxh64Stream() *xxh64Stream {
	return &xxh64Stream{v: [4]uint64{xxInit1, xxPrime2, 0, xxInit4}}
}

func (s *xxh64Stream) write(p []byte) {
	s.total += uint64(len(p))
	for len(p) > 0 {
		c := copy(s.buf[s.nbuf:], p)
		s.nbuf += c
		p = p[c:]
		if s.nbuf == 32 {
			for i := range s.v {
				s.v[i] = xxRound(s.v[i], binary.LittleEndian.Uint64(s.buf[8*i:]))
			}
			s.nbuf = 0
		}
	}
}

func (s *xxh64Stream) sum() uint64 {
	var h uint64
	if s.total >= 32 {
		h = bits.RotateLeft64(s.v[0], 1) + bits.RotateLeft64(s.v[1], 7) +
			bits.RotateLeft64(s.v[2], 12) + bits.RotateLeft64(s.v[3], 18)
		for _, v := range s.v {
			h = (h^xxRound(0, v))*xxPrime1 + xxPrime4
		}
	} else {
		h = xxPrime5
	}
	h += s.total
	tail := s.buf[:s.nbuf]
	for ; len(tail) >= 8; tail = tail[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(tail))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	if len(tail) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(tail)) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		tail = tail[4:]
	}
	for _, b := range tail {
		h ^= uint64(b) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	return h ^ h>>32
}

// TestXxh64 pins Xxh64 to the published XXH64 vectors (seed 0), then checks
// every length across the stripe and tail boundaries against the streaming
// reference fed in uneven pieces.
func TestXxh64(t *testing.T) {
	for in, want := range map[string]uint64{
		"":             0xef46db3751d8e999,
		"abc":          0x44bc2cf5ad770999,
		"hello, world": 0xb33a384e6d1b1242,
		"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789$": 0x1032d841e824f998,
	} {
		if got := Xxh64([]byte(in)); got != want {
			t.Errorf("Xxh64(%q) = %#x, want %#x", in, got, want)
		}
	}
	rng := NewRNG(11)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	for n := 0; n <= len(data); n++ {
		for step := 1; step <= 7; step += 3 {
			s := newXxh64Stream()
			for i, k := 0, 0; i < n; k++ {
				j := min(n, i+step+k%5) // pieces of step..step+4 bytes
				s.write(data[i:j])
				i = j
			}
			if got, want := Xxh64(data[:n]), s.sum(); got != want {
				t.Fatalf("Xxh64(%d bytes) = %#x, streaming reference (pieces from %d bytes) %#x", n, got, step, want)
			}
		}
	}
}

// BenchmarkContentHash times the two chain hashes over one 4 KiB page: the
// format-v2 reader's FNV-64a and the v3 content hash XXH64.
func BenchmarkContentHash(b *testing.B) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i)
	}
	for _, h := range []struct {
		name string
		fn   func([]byte) uint64
	}{{"fnv64a", Fnv64a}, {"xxh64", Xxh64}} {
		b.Run(h.name, func(b *testing.B) {
			b.SetBytes(int64(len(page)))
			var sink uint64
			for b.Loop() {
				sink += h.fn(page)
			}
			_ = sink
		})
	}
}
