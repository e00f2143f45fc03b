package traffic

import (
	"testing"

	"wormnet/internal/rng"
	"wormnet/internal/topology"
)

func TestTransposePermutation(t *testing.T) {
	tp := topology.New(4, 2)
	p := NewTranspose(tp)
	r := rng.New(1)
	// (1, 2) -> (2, 1)
	src := tp.ID([]int{1, 2})
	want := tp.ID([]int{2, 1})
	if got := p.Destination(src, r); got != want {
		t.Errorf("transpose(%d) = %d, want %d", src, got, want)
	}
	// Diagonal nodes redraw; never self.
	diag := tp.ID([]int{3, 3})
	for i := 0; i < 100; i++ {
		if p.Destination(diag, r) == diag {
			t.Fatal("diagonal node sent to itself")
		}
	}
	if p.Name() != "transpose" {
		t.Errorf("name %q", p.Name())
	}
}

func TestTransposeThreeDims(t *testing.T) {
	tp := topology.New(3, 3)
	p := NewTranspose(tp)
	r := rng.New(2)
	src := tp.ID([]int{0, 1, 2})
	want := tp.ID([]int{2, 1, 0})
	if got := p.Destination(src, r); got != want {
		t.Errorf("transpose = %d, want %d", got, want)
	}
}

func TestTornado(t *testing.T) {
	tp := topology.New(8, 2)
	p := NewTornado(tp)
	// (2, 5) -> (2 + 3, 5) = (5, 5): k/2 - 1 = 3 hops in dimension 0.
	src := tp.ID([]int{2, 5})
	want := tp.ID([]int{5, 5})
	if got := p.Destination(src, nil); got != want {
		t.Errorf("tornado(%d) = %d, want %d", src, got, want)
	}
	// Wraps around.
	src = tp.ID([]int{7, 0})
	want = tp.ID([]int{2, 0})
	if got := p.Destination(src, nil); got != want {
		t.Errorf("tornado wrap = %d, want %d", got, want)
	}
	if p.Name() != "tornado" {
		t.Errorf("name %q", p.Name())
	}
}

func TestTornadoValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for k=2")
		}
	}()
	NewTornado(topology.New(2, 3))
}

func TestGeneratorName(t *testing.T) {
	tp := topology.New(4, 2)
	g := NewGenerator(NewUniform(tp), Fixed(16), 0.4)
	if g.Name() != "bernoulli(uniform,16-flit)" {
		t.Errorf("name %q", g.Name())
	}
}
