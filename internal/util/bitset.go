// Package util provides small supporting data structures used across the
// repository: a bitset, a deterministic random number generator and the
// seeded hash Hash64. They are allocation-conscious because the
// scheduling and simulation layers call them in tight loops.
package util

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a Bitset able to hold values in [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity the set was created with.
func (b *Bitset) Len() int { return b.n }

// Set adds i to the set.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear removes i from the set.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether i is in the set.
func (b *Bitset) Has(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

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

// Or sets b to the union of b and other. The sets must have the same capacity.
func (b *Bitset) Or(other *Bitset) {
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// ForEach calls f for every element in increasing order.
func (b *Bitset) ForEach(f func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			f(wi<<6 + tz)
			w &^= 1 << uint(tz)
		}
	}
}
