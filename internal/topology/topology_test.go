package topology

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{1, 3}, {0, 1}, {8, 0}, {-2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.k, tc.n)
				}
			}()
			New(tc.k, tc.n)
		}()
	}
}

func TestSizes(t *testing.T) {
	for _, tc := range []struct{ k, n, nodes, degree int }{
		{8, 3, 512, 6},
		{4, 2, 16, 4},
		{2, 4, 16, 8},
		{3, 3, 27, 6},
		{16, 2, 256, 4},
	} {
		tp := New(tc.k, tc.n)
		if tp.Nodes() != tc.nodes {
			t.Errorf("%d-ary %d-cube: Nodes() = %d, want %d", tc.k, tc.n, tp.Nodes(), tc.nodes)
		}
		if tp.Degree() != tc.degree {
			t.Errorf("%d-ary %d-cube: Degree() = %d, want %d", tc.k, tc.n, tp.Degree(), tc.degree)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	tp := New(5, 3)
	for id := 0; id < tp.Nodes(); id++ {
		if got := tp.ID(tp.Coord(id)); got != id {
			t.Fatalf("ID(Coord(%d)) = %d", id, got)
		}
	}
}

func TestIDWraps(t *testing.T) {
	tp := New(4, 2)
	if got := tp.ID([]int{5, -1}); got != tp.ID([]int{1, 3}) {
		t.Errorf("wrapped coordinates differ: %d", got)
	}
}

func TestNeighborSymmetry(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{8, 3}, {4, 2}, {3, 3}, {2, 3}} {
		tp := New(tc.k, tc.n)
		for id := 0; id < tp.Nodes(); id++ {
			for d := 0; d < tp.Degree(); d++ {
				dir := Direction(d)
				nb := tp.Neighbor(id, dir)
				back := tp.Neighbor(nb, dir.Opposite())
				if back != id {
					t.Fatalf("%d-ary %d-cube: Neighbor(Neighbor(%d,%v),%v) = %d",
						tc.k, tc.n, id, dir, dir.Opposite(), back)
				}
			}
		}
	}
}

func TestNeighborMovesOneHop(t *testing.T) {
	tp := New(8, 3)
	for id := 0; id < tp.Nodes(); id += 7 {
		for d := 0; d < tp.Degree(); d++ {
			nb := tp.Neighbor(id, Direction(d))
			if dist := tp.Distance(id, nb); dist != 1 {
				t.Fatalf("neighbor at distance %d", dist)
			}
		}
	}
}

func TestDistanceMetric(t *testing.T) {
	tp := New(6, 2)
	n := tp.Nodes()
	cfg := &quick.Config{MaxCount: 500}
	// Symmetry and identity.
	if err := quick.Check(func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw)%n, int(bRaw)%n
		if tp.Distance(a, a) != 0 {
			return false
		}
		return tp.Distance(a, b) == tp.Distance(b, a)
	}, cfg); err != nil {
		t.Error(err)
	}
	// Triangle inequality.
	if err := quick.Check(func(aRaw, bRaw, cRaw uint16) bool {
		a, b, c := int(aRaw)%n, int(bRaw)%n, int(cRaw)%n
		return tp.Distance(a, c) <= tp.Distance(a, b)+tp.Distance(b, c)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestDistanceKnownValues(t *testing.T) {
	tp := New(8, 3)
	a := tp.ID([]int{0, 0, 0})
	for _, tc := range []struct {
		coord []int
		want  int
	}{
		{[]int{1, 0, 0}, 1},
		{[]int{7, 0, 0}, 1},  // wraps around
		{[]int{4, 0, 0}, 4},  // exactly half way
		{[]int{5, 0, 0}, 3},  // shorter the other way
		{[]int{4, 4, 4}, 12}, // maximum distance
		{[]int{3, 2, 1}, 6},
	} {
		b := tp.ID(tc.coord)
		if got := tp.Distance(a, b); got != tc.want {
			t.Errorf("Distance(0,%v) = %d, want %d", tc.coord, got, tc.want)
		}
	}
}

// TestMinimalDirectionsProgress: every direction offered strictly reduces
// distance, and at least one direction is offered unless already at the
// destination.
func TestMinimalDirectionsProgress(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{8, 3}, {4, 2}, {5, 2}, {2, 3}} {
		tp := New(tc.k, tc.n)
		nodes := tp.Nodes()
		if err := quick.Check(func(aRaw, bRaw uint16) bool {
			a, b := int(aRaw)%nodes, int(bRaw)%nodes
			dirs := tp.MinimalDirections(a, b, nil)
			if a == b {
				return len(dirs) == 0
			}
			if len(dirs) == 0 {
				return false
			}
			d := tp.Distance(a, b)
			for _, dir := range dirs {
				if tp.Distance(tp.Neighbor(a, dir), b) != d-1 {
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 1000}); err != nil {
			t.Errorf("%d-ary %d-cube: %v", tc.k, tc.n, err)
		}
	}
}

// TestMinimalDirectionsComplete: every neighbor that strictly reduces the
// distance is offered.
func TestMinimalDirectionsComplete(t *testing.T) {
	tp := New(8, 3)
	nodes := tp.Nodes()
	if err := quick.Check(func(aRaw, bRaw uint16) bool {
		a, b := int(aRaw)%nodes, int(bRaw)%nodes
		dirs := tp.MinimalDirections(a, b, nil)
		offered := map[Direction]bool{}
		for _, d := range dirs {
			offered[d] = true
		}
		d := tp.Distance(a, b)
		for dd := 0; dd < tp.Degree(); dd++ {
			dir := Direction(dd)
			reduces := tp.Distance(tp.Neighbor(a, dir), b) == d-1
			if reduces != offered[dir] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestMinimalDirectionsHalfway(t *testing.T) {
	tp := New(8, 1)
	dirs := tp.MinimalDirections(0, 4, nil)
	if len(dirs) != 2 {
		t.Fatalf("halfway displacement offered %v, want both directions", dirs)
	}
}

func TestDirectionAlgebra(t *testing.T) {
	for d := 0; d < 8; d++ {
		dir := Direction(d)
		if dir.Opposite().Opposite() != dir {
			t.Errorf("double opposite of %v", dir)
		}
		if dir.Opposite().Dim() != dir.Dim() {
			t.Errorf("opposite changes dimension for %v", dir)
		}
		if dir.Negative() == dir.Opposite().Negative() {
			t.Errorf("opposite keeps sign for %v", dir)
		}
	}
	if Direction(0).String() != "X+" || Direction(5).String() != "Z-" {
		t.Errorf("direction names: %v %v", Direction(0), Direction(5))
	}
	if Direction(8).String() != "D4+" {
		t.Errorf("high dimension name: %v", Direction(8))
	}
}

func TestString(t *testing.T) {
	if got := New(8, 3).String(); got != "8-ary 3-cube (512 nodes)" {
		t.Errorf("String() = %q", got)
	}
}

func BenchmarkMinimalDirections(b *testing.B) {
	tp := New(8, 3)
	var buf [8]Direction
	for i := 0; i < b.N; i++ {
		_ = tp.MinimalDirections(i%512, (i*37+11)%512, buf[:0])
	}
}

func BenchmarkDistance(b *testing.B) {
	tp := New(8, 3)
	for i := 0; i < b.N; i++ {
		_ = tp.Distance(i%512, (i*37+11)%512)
	}
}
