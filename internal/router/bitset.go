package router

import (
	"fmt"
	"math/bits"
)

// shardBits is a set of small integers (LinkIDs, VCIDs) kept as one two-level
// bitmap per occupancy shard, all in one allocation: shard s's share starts at
// s*stride and holds `words` words indexed by member (bit i&63 of word i>>6)
// followed by a summary level with one bit per word (set iff the word is
// non-zero). A member's bit lives only in its owner's share and only the owner
// writes that share, so shard workers never touch the same word; whole-fabric
// readers (WordIter) OR the shares. Word-ascending, bit-ascending iteration
// yields members ascending — canonical order — for every partition, and the
// summary level lets it skip 64 empty words at a time.
type shardBits struct {
	bits   []uint64
	words  int
	stride int
}

// newShardBits returns an empty set over [0, n) split into shards shares.
func newShardBits(n, shards int) shardBits {
	words := (n + 63) >> 6
	stride := words + (words+63)>>6
	return shardBits{bits: make([]uint64, shards*stride), words: words, stride: stride}
}

func (b *shardBits) set(s int32, i int) {
	share := b.bits[int(s)*b.stride:]
	w := i >> 6
	share[w] |= 1 << (i & 63)
	share[b.words+w>>6] |= 1 << (w & 63)
}

func (b *shardBits) clear(s int32, i int) {
	share := b.bits[int(s)*b.stride:]
	w := i >> 6
	share[w] &^= 1 << (i & 63)
	if share[w] == 0 {
		share[b.words+w>>6] &^= 1 << (w & 63)
	}
}

// share returns shard s's two levels.
func (b *shardBits) share(s int) (words, summary []uint64) {
	sh := b.bits[s*b.stride : (s+1)*b.stride]
	return sh[:b.words], sh[b.words:]
}

// or ORs the shards' copies of word i (a word of either level: i indexes a
// share).
func (b *shardBits) or(i int) uint64 {
	w := b.bits[i]
	for i += b.stride; i < len(b.bits); i += b.stride {
		w |= b.bits[i]
	}
	return w
}

// count returns the number of members, all shares together.
func (b *shardBits) count() int {
	n := 0
	for it := (WordIter{b: b}); ; {
		_, word, ok := it.Next()
		if !ok {
			return n
		}
		n += bits.OnesCount64(word)
	}
}

// audit checks both levels of every share, a word at a time, against want,
// the word level the shares should hold (share s's words at want[s*words:]):
// a member's bit is set exactly where want has it and a summary bit mirrors
// its word.
func (b *shardBits) audit(what string, want []uint64) error {
	for s := 0; s*b.stride < len(b.bits); s++ {
		words, summary := b.share(s)
		for w, got := range words {
			exp := want[s*b.words+w]
			if got != exp {
				i := w<<6 + bits.TrailingZeros64(got^exp)
				return fmt.Errorf("router: %s %d has bit %d in shard %d's share of the %s bitmap, want %d",
					what, i, got>>(i&63)&1, s, what, exp>>(i&63)&1)
			}
			if sum := summary[w>>6] >> (w & 63) & 1; (sum != 0) != (exp != 0) {
				return fmt.Errorf("router: shard %d's summary bit for %ss %d..%d is %d, their word is %#x",
					s, what, w<<6, w<<6+63, sum, exp)
			}
		}
	}
	return nil
}

// WordIter iterates a fabric set — the busy links or the occupied VCs, every
// shard's share together — one non-empty 64-member word at a time, in
// ascending order. It reads the fabric's bitmap in place: an Allocate or
// release between two Next calls may or may not be seen.
type WordIter struct {
	b   *shardBits
	si  int    // summary words consumed so far
	sum uint64 // unvisited bits of summary word si-1
}

// Next returns the next non-empty word of the bitmap: bit b of word is member
// w<<6 + b. ok is false once the set is exhausted.
func (it *WordIter) Next() (w int, word uint64, ok bool) {
	b := it.b
	for it.sum == 0 {
		if b.words+it.si == b.stride {
			return 0, 0, false
		}
		it.sum = b.or(b.words + it.si)
		it.si++
	}
	w = (it.si-1)<<6 + bits.TrailingZeros64(it.sum)
	it.sum &= it.sum - 1
	return w, b.or(w), true
}
