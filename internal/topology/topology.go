// Package topology models k-ary n-cube interconnection networks
// (bidirectional tori), the substrate evaluated in the paper: a
// bidirectional 8-ary 3-cube with 512 nodes.
//
// Nodes are identified by a dense integer ID in [0, N) and, equivalently,
// by an n-digit radix-k coordinate vector. Each node has 2n network
// directions (one positive and one negative per dimension); when k == 2 the
// positive and negative neighbors coincide and only the positive direction
// is used, yielding a hypercube.
package topology

import (
	"fmt"
	"math/bits"
	"strings"
)

// Direction identifies one of the 2n network directions of a node.
// Directions are numbered dim*2 for the positive ("+") direction of a
// dimension and dim*2+1 for the negative ("-") direction.
type Direction int

// Dim returns the dimension this direction travels along.
func (d Direction) Dim() int { return int(d) / 2 }

// Negative reports whether the direction decreases the coordinate.
func (d Direction) Negative() bool { return int(d)%2 == 1 }

// Opposite returns the direction that undoes d.
func (d Direction) Opposite() Direction { return d ^ 1 }

// dimNames are the letters String gives the first four dimensions.
var dimNames = [...]string{"X", "Y", "Z", "W"}

// String formats the direction as, e.g., "X+", "Y-", "D3+".
func (d Direction) String() string {
	dim := d.Dim()
	var name string
	if dim < len(dimNames) {
		name = dimNames[dim]
	} else {
		name = fmt.Sprintf("D%d", dim)
	}
	if d.Negative() {
		return name + "-"
	}
	return name + "+"
}

// Torus is a k-ary n-cube with bidirectional links.
type Torus struct {
	k int // radix: nodes per dimension
	n int // number of dimensions
	// nodes = k^n, precomputed.
	nodes int
	// strides[d] = k^d, used by ID to convert coordinates to IDs.
	strides []int
	// neighbor[id*2n + dir] caches neighbor IDs.
	neighbor []int32
	// coord[id*n + d] is coordinate d of node id. New splits every ID into
	// its radix-k digits once, so no query divides.
	coord []uint16
	// minDir[o] classifies the forward offset o = (dst - cur) mod k along one
	// dimension: bit 0 is set when the "+" direction is minimal, bit 1 when
	// the "-" direction is. Neither is set at o == 0 (aligned) and both are
	// at o == k/2 for even k (exactly half way around).
	minDir []uint8
}

// Limits of the table encodings: a coordinate is stored in 16 bits and a
// minimal-direction mask holds two bits per dimension in a uint32.
const (
	maxRadix = 1 << 16
	maxDims  = 16
)

// maxNodes bounds the node count: the simulator stores node IDs as int32
// and sizes per-node tables from it.
const maxNodes = 1 << 30

// Validate reports whether New can build a k-ary n-cube: k >= 2, n >= 1,
// both within the table encodings (k <= 65536, n <= 16) and at most 2^30
// nodes. It allocates nothing, so callers check a size before building.
func Validate(k, n int) error {
	switch {
	case k < 2 || n < 1:
		return fmt.Errorf("topology: invalid %d-ary %d-cube: need k >= 2 and n >= 1", k, n)
	case k > maxRadix || n > maxDims:
		return fmt.Errorf("topology: %d-ary %d-cube is too large: need k <= %d and n <= %d", k, n, maxRadix, maxDims)
	}
	nodes := 1
	for d := 0; d < n; d++ {
		if nodes *= k; nodes > maxNodes {
			return fmt.Errorf("topology: %d-ary %d-cube is too large: more than %d nodes", k, n, maxNodes)
		}
	}
	return nil
}

// New constructs a k-ary n-cube. It panics with Validate's error on a
// size Validate refuses.
func New(k, n int) *Torus {
	if err := Validate(k, n); err != nil {
		panic(err)
	}
	nodes := 1
	strides := make([]int, n)
	for d := 0; d < n; d++ {
		strides[d] = nodes
		nodes *= k
	}
	t := &Torus{k: k, n: n, nodes: nodes, strides: strides}
	t.minDir = make([]uint8, k)
	for o := 1; o < k; o++ {
		switch {
		case 2*o == k:
			t.minDir[o] = 3
		case 2*o < k:
			t.minDir[o] = 1
		default:
			t.minDir[o] = 2
		}
	}
	t.coord = make([]uint16, nodes*n)
	t.neighbor = make([]int32, nodes*2*n)
	// IDs are visited in ascending order, so the coordinate vector advances
	// like an odometer: add one to digit 0 and carry.
	coord := make([]int, n)
	for id := 0; id < nodes; id++ {
		for d := 0; d < n; d++ {
			t.coord[id*n+d] = uint16(coord[d])
			up := coord[d] + 1
			if up == k {
				up = 0
			}
			down := coord[d] - 1
			if down < 0 {
				down = k - 1
			}
			base := id*2*n + d*2
			t.neighbor[base] = int32(id + (up-coord[d])*strides[d])
			t.neighbor[base+1] = int32(id + (down-coord[d])*strides[d])
		}
		for d := 0; d < n; d++ {
			coord[d]++
			if coord[d] < k {
				break
			}
			coord[d] = 0
		}
	}
	return t
}

// K returns the radix (nodes per dimension).
func (t *Torus) K() int { return t.k }

// N returns the number of dimensions.
func (t *Torus) N() int { return t.n }

// Nodes returns the total number of nodes, k^n.
func (t *Torus) Nodes() int { return t.nodes }

// Degree returns the number of network directions per node, 2n.
func (t *Torus) Degree() int { return 2 * t.n }

// Coord returns the coordinate vector of node id.
func (t *Torus) Coord(id int) []int {
	c := make([]int, t.n)
	for d := range c {
		c[d] = t.CoordAt(id, d)
	}
	return c
}

// CoordAt returns coordinate dim of node id.
func (t *Torus) CoordAt(id, dim int) int { return int(t.coord[id*t.n+dim]) }

// ID returns the node ID of the coordinate vector c. Coordinates are taken
// modulo k, so out-of-range values wrap around the torus.
func (t *Torus) ID(c []int) int {
	if len(c) != t.n {
		panic("topology: coordinate dimension mismatch")
	}
	id := 0
	for d := 0; d < t.n; d++ {
		x := c[d] % t.k
		if x < 0 {
			x += t.k
		}
		id += x * t.strides[d]
	}
	return id
}

// Neighbor returns the node adjacent to id in direction dir.
func (t *Torus) Neighbor(id int, dir Direction) int {
	return int(t.neighbor[id*2*t.n+int(dir)])
}

// offset returns the forward offset (dst - cur) mod k along dimension dim,
// in [0, k).
func (t *Torus) offset(cur, dst, dim int) int {
	o := int(t.coord[dst*t.n+dim]) - int(t.coord[cur*t.n+dim])
	if o < 0 {
		o += t.k
	}
	return o
}

// Distance returns the minimal hop count between nodes a and b.
func (t *Torus) Distance(a, b int) int {
	dist := 0
	for dim := 0; dim < t.n; dim++ {
		o := t.offset(a, b, dim)
		if 2*o > t.k {
			o = t.k - o
		}
		dist += o
	}
	return dist
}

// MinimalDirMask returns the set of directions that move a packet at cur
// strictly closer to dst on a minimal path, as a bit mask: bit d is set iff
// Direction(d) is minimal. When the remaining displacement along a dimension
// is exactly k/2 (k even) both directions of that dimension are minimal and
// both are set — this is what gives true fully adaptive routing its
// flexibility on tori. The mask is zero iff cur == dst. It is a pure
// function of (cur, dst), which is what lets a blocked header cache it (see
// router.Fabric.RouteMask).
func (t *Torus) MinimalDirMask(cur, dst int) uint32 {
	var mask uint32
	for dim := 0; dim < t.n; dim++ {
		mask |= uint32(t.minDir[t.offset(cur, dst, dim)]) << (2 * dim)
	}
	return mask
}

// MinimalDirections appends the directions of MinimalDirMask(cur, dst) to
// buf in ascending order and returns the extended slice.
func (t *Torus) MinimalDirections(cur, dst int, buf []Direction) []Direction {
	for mask := t.MinimalDirMask(cur, dst); mask != 0; mask &= mask - 1 {
		buf = append(buf, Direction(bits.TrailingZeros32(mask)))
	}
	return buf
}

// String describes the topology, e.g. "8-ary 3-cube (512 nodes)".
func (t *Torus) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-ary %d-cube (%d nodes)", t.k, t.n, t.nodes)
	return b.String()
}
