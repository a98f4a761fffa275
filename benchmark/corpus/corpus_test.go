package corpus

import (
	"bytes"
	"compress/flate"
	"testing"
)

func flateRatio(t *testing.T, page []byte) float64 {
	t.Helper()
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(page); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return float64(out.Len()) / float64(len(page))
}

func TestFillIsAFunctionOfSeedPageVersion(t *testing.T) {
	c := Corpus{Seed: 7, PageSize: 4096, Mix: Mixed}
	a, b := make([]byte, 4096), make([]byte, 4096)
	for page := 0; page < 64; page++ {
		c.Fill(a, page, 3)
		c.Fill(b, page, 3)
		if !bytes.Equal(a, b) {
			t.Fatalf("page %d: two fills of one key differ", page)
		}
		c.Fill(b, page, 4)
		if same := bytes.Equal(a, b); same != (c.KindOf(page) == Zero) {
			t.Fatalf("page %d (%v): version 3 == version 4 is %v", page, c.KindOf(page), same)
		}
	}
	other := Corpus{Seed: 8, PageSize: 4096, Mix: Mixed}
	differ := 0
	for page := 0; page < 64; page++ {
		c.Fill(a, page, 1)
		other.Fill(b, page, 1)
		if !bytes.Equal(a, b) {
			differ++
		}
	}
	if differ < 32 {
		t.Fatalf("only %d of 64 pages differ between seeds 7 and 8", differ)
	}
}

// TestPinnedBytes fixes the generator: a change to it silently changes every
// workload's input, so it must show up here first.
func TestPinnedBytes(t *testing.T) {
	page := make([]byte, 4096)
	for _, tc := range []struct {
		mix  Mix
		want uint64
	}{
		{Mix{Stencil: 8}, 0x2eaaef41bdd914ee},
		{Mix{Random: 8}, 0x733ae6cd332dcb76},
		{Mix{Repeated: 8}, 0x26409734a76fa600},
	} {
		Corpus{Seed: 1, PageSize: 4096, Mix: tc.mix}.Fill(page, 5, 2)
		var sum uint64
		for i, b := range page {
			sum = sum*31 + uint64(b) + uint64(i)
		}
		if sum != tc.want {
			t.Errorf("mix %v: checksum %#x, want %#x", tc.mix, sum, tc.want)
		}
	}
}

func TestCompressibilityClasses(t *testing.T) {
	page := make([]byte, 4096)
	for _, tc := range []struct {
		kind   Kind
		lo, hi float64
	}{
		{Stencil, 0.25, 0.60},
		{Random, 0.99, 1.02},
		{Zero, 0, 0.02},
		{Repeated, 0, 0.03},
	} {
		var mix Mix
		mix[tc.kind] = 8
		c := Corpus{Seed: 3, PageSize: 4096, Mix: mix}
		for p := 0; p < 16; p++ {
			if got := c.KindOf(p); got != tc.kind {
				t.Fatalf("mix %v: page %d is %v", mix, p, got)
			}
			c.Fill(page, p, uint32(p+1))
			if r := flateRatio(t, page); r < tc.lo || r > tc.hi {
				t.Errorf("%v page %d: flate ratio %.3f outside [%.2f, %.2f]", tc.kind, p, r, tc.lo, tc.hi)
			}
		}
	}
}

func TestRepeatedIgnoresVersion(t *testing.T) {
	c := Corpus{Seed: 1, PageSize: 4096, Mix: Mix{Repeated: 8}}
	a, b := make([]byte, 4096), make([]byte, 4096)
	c.Fill(a, 9, 1)
	c.Fill(b, 9, 2)
	if !bytes.Equal(a, b) {
		t.Fatal("a repeated page changed with its version")
	}
}

func TestMixShares(t *testing.T) {
	c := Corpus{Seed: 11, PageSize: 4096, Mix: Mixed}
	var got [numKinds]int
	const n = 16384
	for p := 0; p < n; p++ {
		got[c.KindOf(p)]++
	}
	for k, share := range Mixed {
		want := n * share / 8
		if d := got[k] - want; d < -n/50 || d > n/50 {
			t.Errorf("%v: %d pages, want about %d", Kind(k), got[k], want)
		}
	}
}

func TestPermIsSeededPermutation(t *testing.T) {
	p, q := Perm(5, 1, 1000), Perm(5, 1, 1000)
	seen := make([]bool, 1000)
	inOrder := 0
	for i, v := range p {
		if v != q[i] {
			t.Fatal("same seed and salt gave two permutations")
		}
		if seen[v] {
			t.Fatalf("%d appears twice", v)
		}
		seen[v] = true
		if v == i {
			inOrder++
		}
	}
	if inOrder > 20 {
		t.Fatalf("%d fixed points: not shuffled", inOrder)
	}
	if r := Perm(5, 2, 1000); r[0] == p[0] && r[1] == p[1] && r[2] == p[2] {
		t.Fatal("salt did not change the permutation")
	}
}

func TestOracleRegeneratesImage(t *testing.T) {
	c := Corpus{Seed: 2, PageSize: 4096, Mix: Mixed}
	o := NewOracle(c, 32)
	image := make([]byte, 32*4096)
	for p := 0; p < 32; p += 2 { // odd pages stay untouched: version 0, zero
		o.Versions[p] = uint32(p + 1)
		c.Fill(image[p*4096:(p+1)*4096], p, uint32(p+1))
	}
	if bad := o.Mismatches(image); bad != 0 {
		t.Fatalf("%d mismatches on a faithful image", bad)
	}
	snap := o.Snapshot()
	o.Versions[0]++
	if bad := snap.Mismatches(image); bad != 0 {
		t.Fatalf("snapshot followed the live table: %d mismatches", bad)
	}
	image[5*4096+17] ^= 1
	if bad := snap.Mismatches(image); bad != 1 {
		t.Fatalf("one flipped byte gave %d mismatches", bad)
	}
}
