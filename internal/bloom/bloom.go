// Package bloom implements the fixed-size Bloom filter used by the Goh
// (Z-IDX) searchable-encryption instantiation (internal/schemes/gohph):
// one filter per encrypted document, with bit positions derived from keyed
// PRFs so the server can test membership given a trapdoor but learns
// nothing about absent words.
package bloom

import (
	"fmt"
	"math"
)

// Filter is a fixed-size Bloom filter. The zero value is not usable; use
// New or FromBytes.
type Filter struct {
	bits []byte
	m    uint32 // number of bits
}

// New creates an empty filter with m bits (rounded up to a whole byte).
func New(m uint32) (*Filter, error) {
	if m == 0 {
		return nil, fmt.Errorf("bloom: filter needs at least one bit")
	}
	return &Filter{bits: make([]byte, (m+7)/8), m: m}, nil
}

// FromBytes wraps a serialised filter. The byte slice is used directly
// (not copied).
func FromBytes(b []byte, m uint32) (*Filter, error) {
	if m == 0 || uint32(len(b)) != (m+7)/8 {
		return nil, fmt.Errorf("bloom: %d bytes cannot hold an %d-bit filter", len(b), m)
	}
	return &Filter{bits: b, m: m}, nil
}

// Bytes returns the backing bytes (not a copy).
func (f *Filter) Bytes() []byte { return f.bits }

// Set sets bit pos (mod m).
func (f *Filter) Set(pos uint32) {
	pos %= f.m
	f.bits[pos/8] |= 1 << (pos % 8)
}

// Test reports whether bit pos (mod m) is set.
func (f *Filter) Test(pos uint32) bool {
	pos %= f.m
	return f.bits[pos/8]&(1<<(pos%8)) != 0
}

// PopCount returns the number of set bits (used by tests and leakage
// analyses: the population count is the only thing a filter reveals about
// its document besides the tested positions).
func (f *Filter) PopCount() int {
	n := 0
	for _, b := range f.bits {
		for ; b != 0; b &= b - 1 {
			n++
		}
	}
	return n
}

// OptimalParams returns the classic Bloom dimensioning for n items at the
// target false-positive rate: m = -n·ln(p)/ln(2)², k = (m/n)·ln(2).
func OptimalParams(n int, fpRate float64) (m uint32, k int, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("bloom: item count must be positive, got %d", n)
	}
	if fpRate <= 0 || fpRate >= 1 {
		return 0, 0, fmt.Errorf("bloom: false-positive rate must be in (0,1), got %v", fpRate)
	}
	mf := -float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)
	m = uint32(math.Ceil(mf))
	if m < 8 {
		m = 8
	}
	k = int(math.Round(mf / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return m, k, nil
}

// FalsePositiveRate returns the expected FP probability of a filter with m
// bits and k hash functions after n insertions: (1 − e^(−kn/m))^k.
func FalsePositiveRate(m uint32, k, n int) float64 {
	if m == 0 || k <= 0 || n <= 0 {
		return 1
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}
