package util

import (
	"encoding/binary"
	"math/bits"
)

// FNV-64a constants (FNV-1a, 64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fnv64a returns the FNV-1a 64-bit hash of data. It is bit-identical to
// hashing data through hash/fnv's New64a, but runs inline with zero heap
// allocations. It is the content and record hash of format-v2 chain
// entries, so it stays to read them; new entries use Xxh64.
//
//aickpt:hotpath
func Fnv64a(data []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// XXH64 primes.
const (
	xxPrime1 uint64 = 0x9E3779B185EBCA87
	xxPrime2 uint64 = 0xC2B2AE3D27D4EB4F
	xxPrime3 uint64 = 0x165667B19E3779F9
	xxPrime4 uint64 = 0x85EBCA77C2B2AE63
	xxPrime5 uint64 = 0x27D4EB2F165667C5
	xxInit1  uint64 = 0x60EA27EEADC0B5D6 // xxPrime1 + xxPrime2 mod 2^64
	xxInit4  uint64 = 0x61C8864E7A143579 // -xxPrime1 mod 2^64
)

// Xxh64 returns the XXH64 hash of data with seed 0, bit-identical to the
// reference implementation. It consumes 32-byte stripes as four
// independent 8-byte lanes, so a 4 KiB page costs 512 multiply-folds that
// the CPU overlaps four at a time, where Fnv64a pays 4096 dependent
// multiplies. It is the content and record hash from format v3 on.
//
//aickpt:hotpath
func Xxh64(data []byte) uint64 {
	n := len(data)
	var h uint64
	if n >= 32 {
		v1, v2, v3, v4 := xxInit1, xxPrime2, uint64(0), xxInit4
		for ; len(data) >= 32; data = data[32:] {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(data[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(data[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(data[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(data[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMerge(h, v1)
		h = xxMerge(h, v2)
		h = xxMerge(h, v3)
		h = xxMerge(h, v4)
	} else {
		h = xxPrime5
	}
	h += uint64(n)
	for ; len(data) >= 8; data = data[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(data))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	if len(data) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(data)) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		data = data[4:]
	}
	for _, b := range data {
		h ^= uint64(b) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

func xxRound(acc, lane uint64) uint64 {
	return bits.RotateLeft64(acc+lane*xxPrime2, 31) * xxPrime1
}

func xxMerge(h, v uint64) uint64 {
	return (h^xxRound(0, v))*xxPrime1 + xxPrime4
}
