package topology

import "testing"

// The divide-and-mod definition of torus geometry, kept as the reference the
// table-driven kernel (coord, minDir) is tested against. It is the arithmetic
// Torus used on every query before the tables existed.

// refCoord extracts coordinate dim of node id from the radix-k digits of id.
func refCoord(k, id, dim int) int {
	for d := 0; d < dim; d++ {
		id /= k
	}
	return id % k
}

// refDelta returns the signed minimal displacement from a to b along one
// dimension, in the range (-k/2, k/2]: positive means "+" is minimal, and at
// exactly k/2 (k even) both directions are.
func refDelta(k, a, b int) int {
	d := (b - a) % k
	if d < 0 {
		d += k
	}
	if 2*d > k {
		d -= k
	}
	return d
}

func refDistance(k, n, a, b int) int {
	dist := 0
	for dim := 0; dim < n; dim++ {
		d := refDelta(k, refCoord(k, a, dim), refCoord(k, b, dim))
		if d < 0 {
			d = -d
		}
		dist += d
	}
	return dist
}

func refMinimalDirections(k, n, cur, dst int) []Direction {
	var dirs []Direction
	for dim := 0; dim < n; dim++ {
		d := refDelta(k, refCoord(k, cur, dim), refCoord(k, dst, dim))
		switch {
		case d == 0:
		case 2*d == k:
			dirs = append(dirs, Direction(dim*2), Direction(dim*2+1))
		case d > 0:
			dirs = append(dirs, Direction(dim*2))
		default:
			dirs = append(dirs, Direction(dim*2+1))
		}
	}
	return dirs
}

// TestKernelMatchesArithmetic: for every (cur, dst) pair of every small torus
// the tables give exactly what the divide-and-mod definition gives. The
// radices cover k = 2 (both directions of a dimension reach the same
// neighbor, and both are offered), odd k (no tie) and the half-way tie of
// even k.
func TestKernelMatchesArithmetic(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8} {
		for _, n := range []int{1, 2, 3} {
			tp := New(k, n)
			for id := 0; id < tp.Nodes(); id++ {
				for dim := 0; dim < n; dim++ {
					if got, want := tp.CoordAt(id, dim), refCoord(k, id, dim); got != want {
						t.Fatalf("%v: CoordAt(%d, %d) = %d, want %d", tp, id, dim, got, want)
					}
				}
			}
			var buf [2 * maxDims]Direction
			for cur := 0; cur < tp.Nodes(); cur++ {
				for dst := 0; dst < tp.Nodes(); dst++ {
					if got, want := tp.Distance(cur, dst), refDistance(k, n, cur, dst); got != want {
						t.Fatalf("%v: Distance(%d, %d) = %d, want %d", tp, cur, dst, got, want)
					}
					want := refMinimalDirections(k, n, cur, dst)
					got := tp.MinimalDirections(cur, dst, buf[:0])
					if len(got) != len(want) {
						t.Fatalf("%v: MinimalDirections(%d, %d) = %v, want %v", tp, cur, dst, got, want)
					}
					var wantMask uint32
					for i, d := range want {
						if got[i] != d {
							t.Fatalf("%v: MinimalDirections(%d, %d) = %v, want %v", tp, cur, dst, got, want)
						}
						wantMask |= 1 << uint(d)
					}
					if mask := tp.MinimalDirMask(cur, dst); mask != wantMask {
						t.Fatalf("%v: MinimalDirMask(%d, %d) = %#x, want %#x", tp, cur, dst, mask, wantMask)
					}
				}
			}
		}
	}
}

// TestTableLimits: New refuses a torus its table encodings cannot hold, and
// accepts the largest dimension count a uint32 mask covers.
func TestTableLimits(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{maxRadix + 1, 1}, {2, maxDims + 1}, {1025, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.k, tc.n)
				}
			}()
			New(tc.k, tc.n)
		}()
	}
	tp := New(2, maxDims)
	last := tp.Nodes() - 1
	if got := tp.MinimalDirMask(0, last); got != 1<<(2*maxDims)-1 {
		t.Errorf("2-ary %d-cube corner-to-corner mask = %#x, want every direction", maxDims, got)
	}
	if got := tp.Distance(0, last); got != maxDims {
		t.Errorf("2-ary %d-cube corner-to-corner distance = %d, want %d", maxDims, got, maxDims)
	}
	ring := New(maxRadix, 1)
	if got := ring.CoordAt(maxRadix-1, 0); got != maxRadix-1 {
		t.Errorf("%d-node ring: last coordinate = %d", maxRadix, got)
	}
}
