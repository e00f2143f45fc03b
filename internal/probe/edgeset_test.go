package probe

import (
	"slices"
	"testing"

	"wormnet/internal/router"
)

// checkEdgeSet compares s with the reference set want, member by member and
// through appendSorted, and checks the load bound.
func checkEdgeSet(t *testing.T, s *edgeSet, want map[uint64]bool) {
	t.Helper()
	if s.len() != len(want) {
		t.Fatalf("len %d, want %d", s.len(), len(want))
	}
	keys := make([]uint64, 0, len(want))
	for k := range want {
		if !s.has(k) {
			t.Fatalf("member %#x missing", k)
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if got := s.appendSorted([]uint64{42}); !slices.Equal(got[1:], keys) || got[0] != 42 {
		t.Fatalf("appendSorted = %#x, want 42 then %#x", got, keys)
	}
	stored := len(want)
	if want[0] {
		stored--
	}
	if 2*stored > len(s.slots) {
		t.Fatalf("%d keys in a table of %d slots: load above 1/2", stored, len(s.slots))
	}
}

// TestEdgeSetZeroKey: 0 is the empty-slot marker, so the key 0 lives in a
// flag — a member like any other for has, add, len, reset and the sorted
// output, and never written into the table.
func TestEdgeSetZeroKey(t *testing.T) {
	var s edgeSet
	if s.has(0) {
		t.Fatal("empty set has 0")
	}
	if !s.add(0) || s.add(0) {
		t.Fatal("add(0) must report new once, then present")
	}
	want := map[uint64]bool{0: true}
	checkEdgeSet(t, &s, want)
	if len(s.slots) != 0 {
		t.Fatalf("the key 0 allocated a table of %d slots", len(s.slots))
	}
	for _, k := range []uint64{7, 1 << 63, ^uint64(0)} {
		s.add(k)
		want[k] = true
	}
	checkEdgeSet(t, &s, want)
	if got := s.appendSorted(nil); got[0] != 0 {
		t.Fatalf("sorted output %#x does not start with 0", got)
	}
	s.reset()
	if s.has(0) || s.len() != 0 {
		t.Fatal("reset kept the key 0")
	}
}

// TestEdgeSetGrowth inserts keys one at a time across several powers of two
// of the table size — real edge keys, whose low bits collide — and checks the
// whole set after every insertion, re-insertions included.
func TestEdgeSetGrowth(t *testing.T) {
	var s edgeSet
	want := map[uint64]bool{}
	sizes := map[int]bool{}
	for i := 0; i < 300; i++ {
		k := edgeKey(router.LinkID(i%7), router.MsgID(i/7))
		if s.add(k) != !want[k] {
			t.Fatalf("add(%#x) misreported novelty", k)
		}
		want[k] = true
		if s.add(k) {
			t.Fatalf("second add(%#x) reported it new", k)
		}
		checkEdgeSet(t, &s, want)
		sizes[len(s.slots)] = true
	}
	for _, size := range []int{edgeSetMinSlots, 16, 32, 64, 128, 256, 512, 1024} {
		if !sizes[size] {
			t.Errorf("the table never had %d slots (sizes seen: %v)", size, sizes)
		}
	}
	for i := 0; i < 300; i++ {
		if k := edgeKey(router.LinkID(i%7), router.MsgID(i/7+1000)); s.has(k) {
			t.Fatalf("non-member %#x reported present", k)
		}
	}
}

// TestEdgeSetResetReuses: a reset empties the set without giving up its
// table, and the next wave fills the same storage without allocating.
func TestEdgeSetResetReuses(t *testing.T) {
	var s edgeSet
	key := func(wave, i int) uint64 { return edgeKey(router.LinkID(i), router.MsgID(wave)) }
	fill := func(wave int) {
		for i := 0; i < 40; i++ {
			s.add(key(wave, i))
		}
	}
	fill(1)
	table := &s.slots[0]
	s.reset()
	checkEdgeSet(t, &s, map[uint64]bool{})
	if allocs := testing.AllocsPerRun(10, func() { s.reset(); fill(2) }); allocs != 0 {
		t.Fatalf("refilling a reset window allocates %v times", allocs)
	}
	if &s.slots[0] != table {
		t.Fatal("reset and refill to the same size reallocated the table")
	}
	want := map[uint64]bool{}
	for i := 0; i < 40; i++ {
		want[key(2, i)] = true
	}
	checkEdgeSet(t, &s, want)
}

// TestEdgeSetSortedOutput: whatever the insertion order, appendSorted writes
// the members ascending, so equal windows encode equally.
func TestEdgeSetSortedOutput(t *testing.T) {
	keys := []uint64{0}
	for i := 0; i < 100; i++ {
		keys = append(keys, edgeKey(router.LinkID(i%5), router.MsgID(i)))
	}
	var fwd, rev edgeSet
	for i := range keys {
		fwd.add(keys[i])
		rev.add(keys[len(keys)-1-i])
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	for _, s := range []*edgeSet{&fwd, &rev} {
		if got := s.appendSorted(nil); !slices.Equal(got, want) {
			t.Fatalf("appendSorted = %#x, want %#x", got, want)
		}
	}
}
