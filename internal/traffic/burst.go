package traffic

import (
	"fmt"

	"wormnet/internal/rng"
	"wormnet/internal/snap"
	"wormnet/internal/topology"
)

// Additional workloads beyond the paper's six: a two-state bursty source
// model and two further classic permutations (transpose and tornado). They
// extend the evaluation to the "different message destination distribution"
// robustness claim and give the detection mechanisms a harsher temporal
// profile (bursts produce transient congestion trees that look even more
// like deadlock than steady-state saturation does).

// Transpose sends (x, y, ...) to the coordinate-reversed node — the matrix
// transpose pattern. Fixed points (diagonal nodes) redraw uniformly.
type Transpose struct {
	nodes int
	dest  []int32
}

// NewTranspose returns the transpose permutation over t.
func NewTranspose(t *topology.Torus) *Transpose {
	p := &Transpose{nodes: t.Nodes(), dest: make([]int32, t.Nodes())}
	n := t.N()
	rev := make([]int, n)
	for src := 0; src < t.Nodes(); src++ {
		c := t.Coord(src)
		for d := 0; d < n; d++ {
			rev[d] = c[n-1-d]
		}
		dst := t.ID(rev)
		if dst == src {
			p.dest[src] = -1
		} else {
			p.dest[src] = int32(dst)
		}
	}
	return p
}

// Destination implements Pattern.
func (p *Transpose) Destination(src int, r *rng.Source) int {
	if d := p.dest[src]; d >= 0 {
		return int(d)
	}
	d := r.Intn(p.nodes - 1)
	if d >= src {
		d++
	}
	return d
}

// Name implements Pattern.
func (p *Transpose) Name() string { return "transpose" }

// Tornado sends each message (k/2 - 1) hops around its own dimension-0
// ring: the classic adversarial pattern for minimal routing on tori, which
// loads one rotational direction maximally.
type Tornado struct {
	t *topology.Torus
}

// NewTornado returns the tornado pattern over t.
func NewTornado(t *topology.Torus) *Tornado {
	if t.K() < 3 {
		panic("traffic: tornado requires radix >= 3")
	}
	return &Tornado{t: t}
}

// Destination implements Pattern.
func (p *Tornado) Destination(src int, _ *rng.Source) int {
	c := p.t.Coord(src)
	c[0] = (c[0] + (p.t.K()+1)/2 - 1) % p.t.K()
	dst := p.t.ID(c)
	if dst == src {
		// k <= 2 is rejected at construction; k == 3 gives offset 1 != 0,
		// so this cannot happen, but keep the guard for safety.
		dst = (src + 1) % p.t.Nodes()
	}
	return dst
}

// Name implements Pattern.
func (p *Tornado) Name() string { return "tornado" }

// Bursty wraps a Generator-compatible injection process with a two-state
// (on/off) Markov modulation: in the ON state the node generates at the
// burst rate; in the OFF state it generates nothing. Mean dwell times are
// geometrically distributed. The long-run average load equals the
// configured load, but arrivals cluster. The per-node ON/OFF state makes it
// Stateful.
type Bursty struct {
	pattern Pattern
	lengths LengthDist
	pOn     float64 // per-cycle generation probability while ON
	// pExitOn / pExitOff are the per-cycle state-flip probabilities.
	pExitOn  float64
	pExitOff float64
	// on[node] tracks each node's current state.
	on []bool
}

// NewBursty builds a bursty source model. load is the long-run average in
// flits/cycle/node; burstiness is the ratio of the ON-state rate to the
// average rate (must be > 1, e.g. 4); meanBurst is the mean ON duration in
// cycles.
func NewBursty(t *topology.Torus, pattern Pattern, lengths LengthDist, load, burstiness float64, meanBurst int) *Bursty {
	if burstiness <= 1 {
		panic("traffic: burstiness must be > 1")
	}
	if meanBurst < 1 {
		panic("traffic: meanBurst must be >= 1")
	}
	pOn := load * burstiness / lengths.Mean()
	if pOn > 1 {
		pOn = 1
	}
	// Fraction of time ON must be 1/burstiness to average out:
	//   onFrac = pExitOff / (pExitOff + pExitOn)
	pExitOn := 1 / float64(meanBurst)
	onFrac := 1 / burstiness
	pExitOff := pExitOn * onFrac / (1 - onFrac)
	return &Bursty{
		pattern:  pattern,
		lengths:  lengths,
		pOn:      pOn,
		pExitOn:  pExitOn,
		pExitOff: pExitOff,
		on:       make([]bool, t.Nodes()),
	}
}

// Next reports whether node src generates a message this cycle, advancing
// the node's burst state.
func (b *Bursty) Next(src int, r *rng.Source) (dst, length int, ok bool) {
	if b.on[src] {
		if r.Bool(b.pExitOn) {
			b.on[src] = false
		}
	} else if r.Bool(b.pExitOff) {
		b.on[src] = true
	}
	if !b.on[src] || !r.Bool(b.pOn) {
		return 0, 0, false
	}
	return b.pattern.Destination(src, r), b.lengths.Length(r), true
}

// AppendSnapshot implements Stateful: every node's ON/OFF state, eight nodes
// to a byte.
func (b *Bursty) AppendSnapshot(dst []byte) []byte {
	for i := 0; i < len(b.on); i += 8 {
		var v byte
		for j, on := range b.on[i:min(i+8, len(b.on))] {
			if on {
				v |= 1 << j
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// RestoreSnapshot implements Stateful.
func (b *Bursty) RestoreSnapshot(r *snap.Reader) {
	for i := 0; i < len(b.on); i += 8 {
		v := r.U8()
		for j := range b.on[i:min(i+8, len(b.on))] {
			b.on[i+j] = v>>j&1 != 0
		}
	}
}

// Name identifies the process in reports.
func (b *Bursty) Name() string {
	return fmt.Sprintf("bursty(%s)", b.pattern.Name())
}
