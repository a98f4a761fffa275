package erasure

import "sync/atomic"

// Table-driven GF(256) multiply-accumulate kernel. The historical inner
// loop (mulAddRef in the tests) pays a zero-test branch and two table lookups
// (log + antilog) per byte; reconstruction of a wide chain runs this loop
// over every byte of every rebuilt shard, so it dominates the restore
// critical path whenever erasure-coded peers are the fastest surviving
// tier. The kernel below folds the whole per-byte computation into one
// 256-byte multiplication row per coefficient: dst[i] ^= row[src[i]],
// branch-free, with a single L1-resident lookup table.

// mulRow is the full multiplication row of one coefficient c:
// mulRow[s] == c*s over GF(2^8). Indexing a *[256]byte by a byte needs no
// bounds check, which keeps the inner loop to a load, a lookup and an XOR.
type mulRow [256]byte

// buildMulRow materialises the multiplication row of c.
func buildMulRow(c byte) *mulRow {
	var r mulRow
	if c == 0 {
		return &r
	}
	logC := gfLog[c]
	for s := 1; s < 256; s++ {
		r[s] = gfExp[logC+gfLog[s]]
	}
	return &r
}

// mulAddRow computes dst[i] ^= row[src[i]] over the common prefix. The
// 8-way unroll amortises the loop bookkeeping; the row parameter is a
// fixed-size array pointer so every lookup is bounds-check free.
//
//aickpt:hotpath
func mulAddRow(dst, src []byte, row *mulRow) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	dst = dst[:n]
	src = src[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i+0] ^= row[src[i+0]]
		dst[i+1] ^= row[src[i+1]]
		dst[i+2] ^= row[src[i+2]]
		dst[i+3] ^= row[src[i+3]]
		dst[i+4] ^= row[src[i+4]]
		dst[i+5] ^= row[src[i+5]]
		dst[i+6] ^= row[src[i+6]]
		dst[i+7] ^= row[src[i+7]]
	}
	for ; i < n; i++ {
		dst[i] ^= row[src[i]]
	}
}

// rowCache lazily materialises multiplication rows, one per coefficient.
// Rows are published through atomic pointers so concurrent Decode calls
// (the peer tier reconstructs many pages from a worker pool) can share one
// Coder without locks: a duplicated build is idempotent and the last store
// wins with an identical table.
type rowCache [256]atomic.Pointer[mulRow]

func (rc *rowCache) row(c byte) *mulRow {
	if r := rc[c].Load(); r != nil {
		return r
	}
	r := buildMulRow(c)
	rc[c].Store(r)
	return r
}

// MulAdd computes dst[i] ^= coef*src[i] over the common prefix of dst and
// src using the Coder's cached multiplication tables. It is safe for
// concurrent use; benchmarks compare it against mulAddRef.
//
// On amd64 with SSSE3 the bulk of the slice goes through a 16-lane
// nibble-table kernel (kernel_amd64.s) built from the same row; elsewhere
// (and for short tails) the portable row kernel runs.
func (c *Coder) MulAdd(dst, src []byte, coef byte) {
	if coef == 0 {
		return
	}
	if mulAddAccel(c, dst, src, coef) {
		return
	}
	mulAddRow(dst, src, c.rows.row(coef))
}
