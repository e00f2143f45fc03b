package traffic

import (
	"wormnet/internal/rng"
	"wormnet/internal/topology"
)

// Additional workloads beyond the paper's six: two further classic
// permutations (transpose and tornado). They extend the evaluation to the
// "different message destination distribution" robustness claim.

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
