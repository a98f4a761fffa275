package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// mulAddRef is the pre-table reference kernel: dst[i] ^= c * src[i], one
// log/antilog pair per byte. Encode and Decode run the table-driven kernel
// in kernel.go; this is the oracle of the exhaustive equivalence sweep and
// the baseline of the GF(256) benchmark.
func mulAddRef(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	logC := gfLog[c]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[logC+gfLog[s]]
		}
	}
}

// The table-driven kernel must agree with the per-byte gfMul reference for
// every coefficient, over a buffer that contains every source byte value.
func TestKernelMatchesReferenceExhaustive(t *testing.T) {
	c := New(4, 2)
	src := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i) // every value 0..255, four times
	}
	for coef := 0; coef < 256; coef++ {
		want := make([]byte, len(src))
		got := make([]byte, len(src))
		// Non-zero starting dst so the XOR accumulate is exercised too.
		for i := range want {
			want[i] = byte(3 * i)
			got[i] = byte(3 * i)
		}
		mulAddRef(want, src, byte(coef))
		c.MulAdd(got, src, byte(coef))
		if !bytes.Equal(got, want) {
			t.Fatalf("kernel diverges from reference at coefficient %d", coef)
		}
	}
}

// The unrolled loop must handle every tail length, not just multiples of 8.
func TestKernelOddLengths(t *testing.T) {
	c := New(3, 1)
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 33; n++ {
		src := make([]byte, n)
		rng.Read(src)
		want := make([]byte, n)
		got := make([]byte, n)
		mulAddRef(want, src, 0x8e)
		c.MulAdd(got, src, 0x8e)
		if !bytes.Equal(got, want) {
			t.Fatalf("kernel diverges at length %d", n)
		}
	}
}

// The row cache is shared by concurrent decoders; hammer it from many
// goroutines (meaningful under -race).
func TestKernelRowCacheConcurrent(t *testing.T) {
	c := New(4, 3)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	shards := c.Encode(data)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			in := make([][]byte, len(shards))
			copy(in, shards)
			in[g%4] = nil // drop one data shard: forces reconstruction
			out, err := c.Decode(in, len(data))
			if err == nil && !bytes.Equal(out, data) {
				err = errMismatch
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = bytes.ErrTooLarge // sentinel reuse; only identity matters

// BenchmarkGFKernelTable measures the table-driven multiply-accumulate the
// decoder runs per reconstructed shard; BenchmarkGFKernelRef is the per-byte
// gfMul baseline. aickpt-bench -scenario restore gates their ratio at >= 4x.
func BenchmarkGFKernelTable(b *testing.B) {
	c := New(4, 2)
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	for i := range src {
		src[i] = byte(i*7 + 3)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MulAdd(dst, src, 0x8e)
	}
}

func BenchmarkGFKernelRef(b *testing.B) {
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	for i := range src {
		src[i] = byte(i*7 + 3)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulAddRef(dst, src, 0x8e)
	}
}

// BenchmarkDecodeReconstruct exercises the full reconstruction path (matrix
// inversion amortised across pages) the peer tier runs during restore.
func BenchmarkDecodeReconstruct(b *testing.B) {
	c := New(4, 2)
	data := make([]byte, 16<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	shards := c.Encode(data)
	in := make([][]byte, len(shards))
	copy(in, shards)
	in[1] = nil
	in[3] = nil
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(in, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}
