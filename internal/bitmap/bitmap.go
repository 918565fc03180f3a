// Package bitmap provides the dense bit sets Smooth Scan uses for its
// bookkeeping structures: the Page ID cache (one bit per heap page)
// and the Tuple ID cache (one bit per tuple), both described in
// Section IV-A of the paper. Their defining property — a few MB for
// hundreds of GB of data — follows from the dense representation.
package bitmap

import "fmt"

// Bitmap is a fixed-size dense bit set.
type Bitmap struct {
	words []uint64
	n     int64
	count int64
}

// New creates a bitmap of n bits, all clear.
//
// The size and index panics here are invariant guards, not error
// returns: every caller sizes bitmaps from a heap file's page or tuple
// count and indexes them with TIDs from that same file, so negative or
// out-of-range values indicate engine corruption that must not be
// silently absorbed.
func New(n int64) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative size %d", n))
	}
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the bitmap size in bits.
func (b *Bitmap) Len() int64 { return b.n }

// Count returns the number of set bits.
func (b *Bitmap) Count() int64 { return b.count }

// MemoryBytes returns the memory footprint of the bit array, the
// number the paper quotes when arguing the caches are small (140 KB
// for a 1M-page table).
func (b *Bitmap) MemoryBytes() int64 { return int64(len(b.words)) * 8 }

func (b *Bitmap) check(i int64) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.n))
	}
}

// Set sets bit i and reports whether it was previously clear.
func (b *Bitmap) Set(i int64) bool {
	b.check(i)
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.count++
	return true
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int64) bool {
	b.check(i)
	return b.words[i/64]&(uint64(1)<<(uint(i)%64)) != 0
}

// Word returns the 64 bits starting at bit from, bit from in the
// lowest place; bits at or beyond Len read as clear. from need not be
// a multiple of 64: a page's slots start anywhere in a Tuple ID cache,
// and the heap's page reader clears a 64-slot chunk's produced tuples
// with one Word.
func (b *Bitmap) Word(from int64) uint64 {
	b.check(from)
	w, sh := from/64, uint(from%64)
	v := b.words[w] >> sh
	if sh != 0 && w+1 < int64(len(b.words)) {
		v |= b.words[w+1] << (64 - sh)
	}
	return v
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int64) {
	b.check(i)
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if b.words[w]&m != 0 {
		b.words[w] &^= m
		b.count--
	}
}

// Reset clears all bits.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.count = 0
}
