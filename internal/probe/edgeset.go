package probe

import (
	"math/bits"
	"slices"
)

// edgeSet is one initiator's dedupe window: the edgeKey values of the wait
// edges its current wave has chased. It is an open-addressing hash set with
// linear probing over a power-of-two table kept at most half full; 0 marks a
// free slot, so the key 0 is held by a flag instead. reset empties the table
// in place, so each wave reuses the storage of the last one and a window
// that has reached its working size never allocates again.
type edgeSet struct {
	slots []uint64
	shift uint8 // 64 - log2(len(slots)): a key's home slot is its top bits after mixing
	n     int   // members, the key 0 included
	zero  bool  // the key 0 is a member
}

// edgeSetMinSlots is the table size a window starts at.
const edgeSetMinSlots = 8

// len returns the number of members.
func (s *edgeSet) len() int { return s.n }

// home returns k's first probe position. Keys are FNV-1a products, whose low
// bits depend only on the low bits of the link and message IDs, so they are
// mixed by a Fibonacci multiply and the table is indexed by the top bits.
func (s *edgeSet) home(k uint64) int { return int(k * 0x9e3779b97f4a7c15 >> s.shift) }

// has reports whether k is a member.
func (s *edgeSet) has(k uint64) bool {
	if k == 0 {
		return s.zero
	}
	if len(s.slots) == 0 {
		return false
	}
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// add inserts k and reports whether it was absent.
func (s *edgeSet) add(k uint64) bool {
	if k == 0 {
		if s.zero {
			return false
		}
		s.zero = true
		s.n++
		return true
	}
	stored := s.n
	if s.zero {
		stored--
	}
	if len(s.slots) > 0 {
		mask := len(s.slots) - 1
		i := s.home(k)
		for ; s.slots[i] != 0; i = (i + 1) & mask {
			if s.slots[i] == k {
				return false
			}
		}
		if 2*(stored+1) <= len(s.slots) {
			s.slots[i] = k
			s.n++
			return true
		}
	}
	s.grow()
	s.insert(k)
	s.n++
	return true
}

// insert places k, known absent and non-zero, in the first free slot of its
// probe sequence.
func (s *edgeSet) insert(k uint64) {
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = k
}

// grow doubles the table (or allocates the first one) and re-inserts the
// stored keys.
func (s *edgeSet) grow() {
	old := s.slots
	size := max(edgeSetMinSlots, 2*len(old))
	s.slots = make([]uint64, size)
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, k := range old {
		if k != 0 {
			s.insert(k)
		}
	}
}

// reset empties the set, keeping the table.
func (s *edgeSet) reset() {
	if s.n == 0 {
		return
	}
	clear(s.slots)
	s.n = 0
	s.zero = false
}

// appendSorted appends the members to dst in ascending order. Both encodings
// write a window this way: table order depends on insertion history, so
// equal windows could otherwise encode differently.
func (s *edgeSet) appendSorted(dst []uint64) []uint64 {
	start := len(dst)
	if s.zero {
		dst = append(dst, 0)
	}
	for _, k := range s.slots {
		if k != 0 {
			dst = append(dst, k)
		}
	}
	slices.Sort(dst[start:])
	return dst
}
