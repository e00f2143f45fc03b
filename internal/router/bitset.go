package router

import (
	"fmt"
	"math/bits"
)

// bitset is a set of small integers (LinkIDs, VCIDs) kept as one two-level
// bitmap in one allocation: `words` words indexed by member (bit i&63 of word
// i>>6) followed by a summary level with one bit per word (set iff the word is
// non-zero). Word-ascending, bit-ascending iteration yields members
// ascending — canonical order — and the summary level lets it skip 64 empty
// words at a time.
type bitset struct {
	bits  []uint64
	words int
}

// newBitset returns an empty set over [0, n).
func newBitset(n int) bitset {
	words := (n + 63) >> 6
	return bitset{bits: make([]uint64, words+(words+63)>>6), words: words}
}

func (b *bitset) set(i int) {
	w := i >> 6
	b.bits[w] |= 1 << (i & 63)
	b.bits[b.words+w>>6] |= 1 << (w & 63)
}

func (b *bitset) clear(i int) {
	w := i >> 6
	b.bits[w] &^= 1 << (i & 63)
	if b.bits[w] == 0 {
		b.bits[b.words+w>>6] &^= 1 << (w & 63)
	}
}

// levels returns the word level and the summary level.
func (b *bitset) levels() (words, summary []uint64) {
	return b.bits[:b.words], b.bits[b.words:]
}

// count returns the number of members.
func (b *bitset) count() int {
	n := 0
	for it := (WordIter{b: b}); ; {
		_, word, ok := it.Next()
		if !ok {
			return n
		}
		n += bits.OnesCount64(word)
	}
}

// audit checks both levels, a word at a time, against want, the word level
// the set should hold: a member's bit is set exactly where want has it and a
// summary bit mirrors its word.
func (b *bitset) audit(what string, want []uint64) error {
	words, summary := b.levels()
	for w, got := range words {
		exp := want[w]
		if got != exp {
			i := w<<6 + bits.TrailingZeros64(got^exp)
			return fmt.Errorf("router: %s %d has bit %d in the %s bitmap, want %d",
				what, i, got>>(i&63)&1, what, exp>>(i&63)&1)
		}
		if sum := summary[w>>6] >> (w & 63) & 1; (sum != 0) != (exp != 0) {
			return fmt.Errorf("router: summary bit for %ss %d..%d is %d, their word is %#x",
				what, w<<6, w<<6+63, sum, exp)
		}
	}
	return nil
}

// WordIter iterates a fabric set — the busy links or the occupied VCs — one
// non-empty 64-member word at a time, in ascending order. It reads the
// fabric's bitmap in place: an Allocate or release between two Next calls may
// or may not be seen.
type WordIter struct {
	b   *bitset
	si  int    // summary words consumed so far
	sum uint64 // unvisited bits of summary word si-1
}

// Next returns the next non-empty word of the bitmap: bit b of word is member
// w<<6 + b. ok is false once the set is exhausted.
func (it *WordIter) Next() (w int, word uint64, ok bool) {
	b := it.b
	for it.sum == 0 {
		if b.words+it.si == len(b.bits) {
			return 0, 0, false
		}
		it.sum = b.bits[b.words+it.si]
		it.si++
	}
	w = (it.si-1)<<6 + bits.TrailingZeros64(it.sum)
	it.sum &= it.sum - 1
	return w, b.bits[w], true
}
