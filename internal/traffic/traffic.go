// Package traffic implements the message workloads used in the paper's
// evaluation (Section 4): six destination distributions (uniform, uniform
// with locality, bit-reversal, perfect-shuffle, butterfly and hot-spot) and
// the message-length mixes (16-flit "s", 64-flit "l", 256-flit "L" and the
// hybrid "sl" of 60% 16-flit plus 40% 64-flit messages), together with the
// Bernoulli injection process that realizes a target load in
// flits/cycle/node.
package traffic

import (
	"fmt"
	"strconv"
	"strings"

	"wormnet/internal/rng"
	"wormnet/internal/topology"
)

// Pattern selects destinations for newly generated messages.
type Pattern interface {
	// Destination returns the destination node for a message generated at
	// src. Implementations must never return src itself; if the underlying
	// map sends a node to itself (as bit permutations do for palindromic
	// addresses) the implementation redraws or remaps, and documents how.
	Destination(src int, r *rng.Source) int
	// Name identifies the pattern in reports.
	Name() string
}

// ---------------------------------------------------------------------------
// Uniform

// Uniform sends each message to a destination chosen uniformly among all
// other nodes.
type Uniform struct {
	nodes int
}

// NewUniform returns a uniform pattern over the given topology.
func NewUniform(t *topology.Torus) *Uniform { return &Uniform{nodes: t.Nodes()} }

// Destination implements Pattern.
func (u *Uniform) Destination(src int, r *rng.Source) int {
	d := r.Intn(u.nodes - 1)
	if d >= src {
		d++
	}
	return d
}

// Name implements Pattern.
func (u *Uniform) Name() string { return "uniform" }

// ---------------------------------------------------------------------------
// Locality

// Locality sends each message to a destination chosen uniformly among the
// nodes within a bounded torus distance of the source. The paper does not
// spell out its locality model; radius 2 reproduces the roughly 3.3x higher
// saturation load of the paper's "uniform with locality" workload (Table 3
// uses injection rates up to 2.0 flits/cycle/node versus 0.6 for uniform).
type Locality struct {
	name string
	// candidates[src] lists all nodes within the radius, precomputed.
	candidates [][]int32
}

// NewLocality returns a locality pattern with the given radius (>= 1).
func NewLocality(t *topology.Torus, radius int) *Locality {
	if radius < 1 {
		panic("traffic: locality radius must be >= 1")
	}
	l := &Locality{name: fmt.Sprintf("locality(r=%d)", radius)}
	l.candidates = make([][]int32, t.Nodes())
	// Distance is translation invariant: compute the offset set once from
	// node 0 and translate it to every source.
	var offsets []int
	for v := 1; v < t.Nodes(); v++ {
		if t.Distance(0, v) <= radius {
			offsets = append(offsets, v)
		}
	}
	n := t.N()
	base := make([]int, n)
	off := make([]int, n)
	sum := make([]int, n)
	for src := 0; src < t.Nodes(); src++ {
		copy(base, t.Coord(src))
		list := make([]int32, len(offsets))
		for i, o := range offsets {
			copy(off, t.Coord(o))
			for d := 0; d < n; d++ {
				sum[d] = base[d] + off[d]
			}
			list[i] = int32(t.ID(sum))
		}
		l.candidates[src] = list
	}
	return l
}

// Destination implements Pattern.
func (l *Locality) Destination(src int, r *rng.Source) int {
	c := l.candidates[src]
	return int(c[r.Intn(len(c))])
}

// Name implements Pattern.
func (l *Locality) Name() string { return l.name }

// ---------------------------------------------------------------------------
// Bit permutations
//
// The classic permutation workloads view the node ID as a b-bit string
// (b = log2(N)); they are defined for power-of-two network sizes. Nodes that
// the permutation maps to themselves redraw uniformly, so every node still
// injects traffic (the standard simulator convention).

// bitPermutation is shared machinery for bit-reversal, perfect-shuffle and
// butterfly.
type bitPermutation struct {
	name  string
	nodes int
	dest  []int32 // dest[src], self-maps marked as -1
}

func newBitPermutation(t *topology.Torus, name string, f func(addr uint, bits uint) uint) *bitPermutation {
	nodes := t.Nodes()
	bits := uint(0)
	for 1<<bits < nodes {
		bits++
	}
	if 1<<bits != nodes {
		panic(fmt.Sprintf("traffic: %s pattern requires a power-of-two node count, got %d", name, nodes))
	}
	p := &bitPermutation{name: name, nodes: nodes, dest: make([]int32, nodes)}
	for src := 0; src < nodes; src++ {
		d := int(f(uint(src), bits))
		if d == src {
			p.dest[src] = -1
		} else {
			p.dest[src] = int32(d)
		}
	}
	return p
}

// Destination implements Pattern.
func (p *bitPermutation) Destination(src int, r *rng.Source) int {
	if d := p.dest[src]; d >= 0 {
		return int(d)
	}
	// Fixed point of the permutation: fall back to uniform so the node
	// still participates in the workload.
	d := r.Intn(p.nodes - 1)
	if d >= src {
		d++
	}
	return d
}

// Name implements Pattern.
func (p *bitPermutation) Name() string { return p.name }

// NewBitReversal returns the bit-reversal permutation: destination address
// is the source address with its bits reversed.
func NewBitReversal(t *topology.Torus) Pattern {
	return newBitPermutation(t, "bit-reversal", func(addr uint, bits uint) uint {
		var out uint
		for i := uint(0); i < bits; i++ {
			out = (out << 1) | ((addr >> i) & 1)
		}
		return out
	})
}

// NewPerfectShuffle returns the perfect-shuffle permutation: destination
// address is the source address rotated left by one bit.
func NewPerfectShuffle(t *topology.Torus) Pattern {
	return newBitPermutation(t, "perfect-shuffle", func(addr uint, bits uint) uint {
		msb := (addr >> (bits - 1)) & 1
		return ((addr << 1) | msb) & ((1 << bits) - 1)
	})
}

// NewButterfly returns the butterfly permutation: destination address is the
// source address with its most and least significant bits swapped.
func NewButterfly(t *topology.Torus) Pattern {
	return newBitPermutation(t, "butterfly", func(addr uint, bits uint) uint {
		msb := (addr >> (bits - 1)) & 1
		lsb := addr & 1
		out := addr &^ (1 | 1<<(bits-1))
		return out | (lsb << (bits - 1)) | msb
	})
}

// ---------------------------------------------------------------------------
// Hot-spot

// HotSpot modifies a uniform distribution so that a fixed fraction of all
// messages is destined for a single hot node (5% in the paper).
type HotSpot struct {
	uniform  Uniform
	hot      int
	fraction float64
}

// NewHotSpot returns a hot-spot pattern routing fraction of the traffic to
// the hot node. The paper uses fraction = 0.05.
func NewHotSpot(t *topology.Torus, hot int, fraction float64) *HotSpot {
	if hot < 0 || hot >= t.Nodes() {
		panic("traffic: hot node out of range")
	}
	if fraction < 0 || fraction > 1 {
		panic("traffic: hot-spot fraction out of range")
	}
	return &HotSpot{uniform: Uniform{nodes: t.Nodes()}, hot: hot, fraction: fraction}
}

// Destination implements Pattern.
func (h *HotSpot) Destination(src int, r *rng.Source) int {
	if src != h.hot && r.Bool(h.fraction) {
		return h.hot
	}
	return h.uniform.Destination(src, r)
}

// Name implements Pattern.
func (h *HotSpot) Name() string { return fmt.Sprintf("hot-spot(%s@%d)", percent(h.fraction), h.hot) }

// percent names fraction f exactly as a percentage: the shortest decimal
// that reads back to f, its point moved two places right, so 0.05 is "5%"
// and 0.054 is "5.4%". Distinct fractions get distinct names, so a run's
// fingerprint tells them apart.
func percent(f float64) string {
	whole, frac, _ := strings.Cut(strconv.FormatFloat(f, 'f', -1, 64), ".")
	frac += "00"
	whole = strings.TrimLeft(whole+frac[:2], "0")
	if whole == "" {
		whole = "0"
	}
	if frac = strings.TrimRight(frac[2:], "0"); frac != "" {
		whole += "." + frac
	}
	return whole + "%"
}

// ---------------------------------------------------------------------------
// Message lengths

// LengthDist draws message lengths in flits.
type LengthDist interface {
	// Length returns the length in flits of the next message.
	Length(r *rng.Source) int
	// Mean returns the expected message length in flits.
	Mean() float64
	// Name identifies the distribution in reports.
	Name() string
}

// Fixed is a constant message length.
type Fixed int

// Length implements LengthDist.
func (f Fixed) Length(*rng.Source) int { return int(f) }

// Mean implements LengthDist.
func (f Fixed) Mean() float64 { return float64(f) }

// Name implements LengthDist.
func (f Fixed) Name() string { return fmt.Sprintf("%d-flit", int(f)) }

// Bimodal mixes two fixed lengths; the paper's "sl" load is
// Bimodal{Short: 16, Long: 64, PShort: 0.6}.
type Bimodal struct {
	Short, Long int
	PShort      float64
}

// Length implements LengthDist.
func (b Bimodal) Length(r *rng.Source) int {
	if r.Bool(b.PShort) {
		return b.Short
	}
	return b.Long
}

// Mean implements LengthDist.
func (b Bimodal) Mean() float64 {
	return b.PShort*float64(b.Short) + (1-b.PShort)*float64(b.Long)
}

// Name implements LengthDist.
func (b Bimodal) Name() string {
	return fmt.Sprintf("%sx%d+%sx%d", percent(b.PShort), b.Short, percent(1-b.PShort), b.Long)
}

// ---------------------------------------------------------------------------
// Injection process

// Generator turns a target load into a stream of messages at one node.
// Each cycle, a new message is generated with probability
// load / meanLength, which yields the requested rate in flits/cycle/node.
// Generated messages wait in an unbounded source queue until the injection
// stage accepts them, matching the paper's methodology (load is an offered
// load; the injection-limitation mechanism may hold messages back).
//
// A Generator is immutable after construction (as are the patterns and length
// distributions of this package): a snapshot of its engine holds the random
// streams and the arrival schedule, nothing of the Generator itself.
//
// Its trials are independent and identically distributed, so the engine
// draws the gap to a node's next arrival in closed form (NextGap) instead of
// running one Bernoulli trial per cycle per node, and visits a node only on
// its arrival cycles — O(arrivals) generator work per cycle instead of
// O(nodes), which is what keeps quiet fabrics cheap. Arrive then draws the
// arriving message. Cycles on which the engine withholds the trial (a full
// source queue) do not consume the gap; the engine re-offers the arrival on
// the next cycle, exactly as a skipped Bernoulli trial would be retried.
// Next is the per-cycle form of the same process, the reference the
// skip-ahead pair is checked against.
type Generator struct {
	pattern Pattern
	lengths LengthDist
	pMsg    float64 // per-cycle message generation probability
}

// NewGenerator builds a Generator for one node. load is in
// flits/cycle/node.
func NewGenerator(pattern Pattern, lengths LengthDist, load float64) *Generator {
	if load < 0 {
		panic("traffic: negative load")
	}
	mean := lengths.Mean()
	if mean <= 0 {
		panic("traffic: non-positive mean message length")
	}
	p := load / mean
	if p > 1 {
		p = 1
	}
	return &Generator{pattern: pattern, lengths: lengths, pMsg: p}
}

// Name identifies the process in reports.
func (g *Generator) Name() string {
	return fmt.Sprintf("bernoulli(%s,%s)", g.pattern.Name(), g.lengths.Name())
}

// Next reports whether a message is generated this cycle at node src and,
// if so, its destination and length in flits.
func (g *Generator) Next(src int, r *rng.Source) (dst, length int, ok bool) {
	if !r.Bool(g.pMsg) {
		return 0, 0, false
	}
	return g.pattern.Destination(src, r), g.lengths.Length(r), true
}

// NextGap draws the number of failed trials strictly before the next arrival
// at node src (0 = the very next trial succeeds). The number of failed
// Bernoulli(pMsg) trials before the next success is geometric, so one
// Geometric draw replaces the whole run of per-cycle Bool draws; the variate
// stream differs from Next's (one uniform per gap instead of one per trial).
// ok=false means the node never generates (zero rate) and must not be asked
// again; no variate is consumed in that case.
func (g *Generator) NextGap(src int, r *rng.Source) (gap int, ok bool) {
	if g.pMsg <= 0 {
		return 0, false
	}
	return r.Geometric(g.pMsg), true
}

// Arrive draws the destination and length of the message arriving at node
// src, consuming the same variates, in the same order, as Next's success
// branch.
func (g *Generator) Arrive(src int, r *rng.Source) (dst, length int) {
	return g.pattern.Destination(src, r), g.lengths.Length(r)
}
