// Package erasure implements systematic Reed-Solomon erasure coding over
// GF(2^8). The paper (§3.2) notes that checkpoints on node-local storage are
// unreliable and points to erasure-coded replication across nodes (ref [18],
// Gomez et al.) as the cost-effective remedy; this package provides that
// substrate for the local-storage configurations.
package erasure

// GF(2^8) arithmetic with the polynomial x^8+x^4+x^3+x^2+1 (0x11d), the
// conventional Reed-Solomon field in which 2 is a primitive element
// (unlike the AES polynomial 0x11b, where 2 generates only a subgroup of
// order 51). Log/antilog tables are built at init time.

var (
	gfExp [512]byte
	gfLog [256]int
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]-gfLog[b]+255]
}

func gfInv(a byte) byte { return gfDiv(1, a) }

// invertMatrix inverts a k×k matrix over GF(256) in place using Gauss-Jordan
// elimination, returning false if the matrix is singular.
func invertMatrix(m [][]byte) bool {
	k := len(m)
	// Augment with identity.
	aug := make([][]byte, k)
	for i := range aug {
		aug[i] = make([]byte, 2*k)
		copy(aug[i], m[i])
		aug[i][k+i] = 1
	}
	for col := 0; col < k; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < k; r++ {
			if aug[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return false
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		// Scale pivot row.
		inv := gfInv(aug[col][col])
		for c := 0; c < 2*k; c++ {
			aug[col][c] = gfMul(aug[col][c], inv)
		}
		// Eliminate other rows.
		for r := 0; r < k; r++ {
			if r == col || aug[r][col] == 0 {
				continue
			}
			f := aug[r][col]
			for c := 0; c < 2*k; c++ {
				aug[r][c] ^= gfMul(f, aug[col][c])
			}
		}
	}
	for i := range m {
		copy(m[i], aug[i][k:])
	}
	return true
}
