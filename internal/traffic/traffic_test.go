package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"wormnet/internal/rng"
	"wormnet/internal/topology"
)

func torus83() *topology.Torus { return topology.New(8, 3) }

func TestUniformNeverSelf(t *testing.T) {
	tp := topology.New(4, 2)
	p := NewUniform(tp)
	r := rng.New(1)
	for i := 0; i < 10_000; i++ {
		src := i % tp.Nodes()
		if d := p.Destination(src, r); d == src {
			t.Fatal("uniform returned the source")
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	tp := topology.New(4, 2)
	p := NewUniform(tp)
	r := rng.New(2)
	seen := make([]bool, tp.Nodes())
	for i := 0; i < 5000; i++ {
		seen[p.Destination(3, r)] = true
	}
	for id, ok := range seen {
		if id != 3 && !ok {
			t.Errorf("node %d never chosen", id)
		}
		if id == 3 && ok {
			t.Error("source chosen")
		}
	}
}

func TestUniformIsUniform(t *testing.T) {
	tp := topology.New(4, 1)
	p := NewUniform(tp)
	r := rng.New(3)
	const draws = 90_000
	counts := map[int]int{}
	for i := 0; i < draws; i++ {
		counts[p.Destination(0, r)]++
	}
	want := float64(draws) / 3
	for d, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("destination %d drawn %d times, want about %.0f", d, c, want)
		}
	}
}

func TestLocalityRespectsRadius(t *testing.T) {
	tp := torus83()
	for _, radius := range []int{1, 2, 3} {
		p := NewLocality(tp, radius)
		r := rng.New(4)
		for i := 0; i < 2000; i++ {
			src := (i * 31) % tp.Nodes()
			d := p.Destination(src, r)
			if d == src {
				t.Fatal("locality returned the source")
			}
			if dist := tp.Distance(src, d); dist > radius {
				t.Fatalf("radius %d: destination at distance %d", radius, dist)
			}
		}
	}
}

func TestLocalityCoversNeighborhood(t *testing.T) {
	tp := topology.New(4, 2)
	p := NewLocality(tp, 1)
	r := rng.New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[p.Destination(5, r)] = true
	}
	want := 0
	for v := 0; v < tp.Nodes(); v++ {
		if v != 5 && tp.Distance(5, v) <= 1 {
			want++
		}
	}
	if len(seen) != want {
		t.Errorf("radius-1 locality reached %d nodes, want %d", len(seen), want)
	}
}

func TestLocalityPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLocality(torus83(), 0)
}

func TestBitReversal(t *testing.T) {
	tp := torus83() // 512 nodes = 9 bits
	p := NewBitReversal(tp)
	r := rng.New(6)
	// 0b000000001 -> 0b100000000
	if d := p.Destination(1, r); d != 256 {
		t.Errorf("bit-reversal(1) = %d, want 256", d)
	}
	if d := p.Destination(0b110000000, r); d != 0b000000011 {
		t.Errorf("bit-reversal(0b110000000) = %#b", d)
	}
}

func TestPerfectShuffle(t *testing.T) {
	tp := torus83()
	p := NewPerfectShuffle(tp)
	r := rng.New(7)
	// Rotate left: 0b100000000 -> 0b000000001
	if d := p.Destination(256, r); d != 1 {
		t.Errorf("shuffle(256) = %d, want 1", d)
	}
	if d := p.Destination(0b000000110, r); d != 0b000001100 {
		t.Errorf("shuffle(6) = %d, want 12", d)
	}
}

func TestButterfly(t *testing.T) {
	tp := torus83()
	p := NewButterfly(tp)
	r := rng.New(8)
	// Swap MSB and LSB: 0b000000001 <-> 0b100000000
	if d := p.Destination(1, r); d != 256 {
		t.Errorf("butterfly(1) = %d, want 256", d)
	}
	if d := p.Destination(256, r); d != 1 {
		t.Errorf("butterfly(256) = %d, want 1", d)
	}
	// Middle bits unaffected.
	if d := p.Destination(0b010101010, r); d != 0b010101010|0 {
		// MSB=0, LSB=0: fixed point -> falls back to uniform, any dest != src.
		if d == 0b010101010 {
			t.Error("fixed point returned itself")
		}
	}
}

func TestBitPermutationsNeverSelf(t *testing.T) {
	tp := topology.New(4, 2) // 16 nodes, includes palindromic addresses
	r := rng.New(9)
	for _, p := range []Pattern{NewBitReversal(tp), NewPerfectShuffle(tp), NewButterfly(tp)} {
		for src := 0; src < tp.Nodes(); src++ {
			for i := 0; i < 50; i++ {
				if d := p.Destination(src, r); d == src {
					t.Fatalf("%s returned the source %d", p.Name(), src)
				}
			}
		}
	}
}

// TestBitPermutationsBijective: excluding fixed points, the deterministic
// part of each bit permutation is a bijection.
func TestBitPermutationsBijective(t *testing.T) {
	tp := torus83()
	r := rng.New(10)
	for _, p := range []Pattern{NewBitReversal(tp), NewPerfectShuffle(tp), NewButterfly(tp)} {
		counts := map[int]int{}
		fixed := 0
		for src := 0; src < tp.Nodes(); src++ {
			d := p.Destination(src, r)
			// Fixed points redraw randomly; identify them by re-drawing:
			// deterministic destinations repeat, random ones almost surely
			// do not.
			if p.Destination(src, r) != d {
				fixed++
				continue
			}
			counts[d]++
		}
		for d, c := range counts {
			if c > 1 {
				t.Errorf("%s maps %d sources to %d", p.Name(), c, d)
			}
		}
		if fixed == 0 {
			t.Errorf("%s found no fixed points on 512 nodes (expected a few)", p.Name())
		}
	}
}

func TestBitPermutationRequiresPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 27 nodes")
		}
	}()
	NewBitReversal(topology.New(3, 3))
}

func TestHotSpotFraction(t *testing.T) {
	tp := torus83()
	p := NewHotSpot(tp, 0, 0.05)
	r := rng.New(11)
	const draws = 200_000
	hot := 0
	for i := 0; i < draws; i++ {
		src := 1 + i%(tp.Nodes()-1) // never the hot node itself
		if p.Destination(src, r) == 0 {
			hot++
		}
	}
	got := float64(hot) / draws
	// 5% hot plus the uniform share that also lands on node 0.
	want := 0.05 + 0.95/float64(tp.Nodes()-1)
	if math.Abs(got-want) > 0.005 {
		t.Errorf("hot fraction %.4f, want about %.4f", got, want)
	}
}

func TestHotSpotFromHotNode(t *testing.T) {
	tp := topology.New(4, 2)
	p := NewHotSpot(tp, 7, 0.05)
	r := rng.New(12)
	for i := 0; i < 5000; i++ {
		if d := p.Destination(7, r); d == 7 {
			t.Fatal("hot node sent to itself")
		}
	}
}

func TestHotSpotValidation(t *testing.T) {
	tp := topology.New(4, 2)
	for _, fn := range []func(){
		func() { NewHotSpot(tp, -1, 0.05) },
		func() { NewHotSpot(tp, 16, 0.05) },
		func() { NewHotSpot(tp, 0, -0.1) },
		func() { NewHotSpot(tp, 0, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestFixedLength(t *testing.T) {
	f := Fixed(16)
	if f.Length(nil) != 16 || f.Mean() != 16 {
		t.Error("Fixed broken")
	}
	if f.Name() != "16-flit" {
		t.Errorf("name %q", f.Name())
	}
}

func TestBimodalLength(t *testing.T) {
	b := Bimodal{Short: 16, Long: 64, PShort: 0.6}
	if got, want := b.Mean(), 0.6*16+0.4*64; got != want {
		t.Errorf("mean %v, want %v", got, want)
	}
	r := rng.New(13)
	const draws = 100_000
	short := 0
	for i := 0; i < draws; i++ {
		switch b.Length(r) {
		case 16:
			short++
		case 64:
		default:
			t.Fatal("unexpected length")
		}
	}
	if got := float64(short) / draws; math.Abs(got-0.6) > 0.01 {
		t.Errorf("short fraction %.4f", got)
	}
}

func TestGeneratorRate(t *testing.T) {
	tp := topology.New(4, 2)
	g := NewGenerator(NewUniform(tp), Fixed(16), 0.4)
	r := rng.New(14)
	const cycles = 200_000
	flits := 0
	for i := 0; i < cycles; i++ {
		if _, length, ok := g.Next(0, r); ok {
			flits += length
		}
	}
	got := float64(flits) / cycles
	if math.Abs(got-0.4) > 0.02 {
		t.Errorf("offered load %.4f flits/cycle, want 0.4", got)
	}
}

func TestGeneratorClampsProbability(t *testing.T) {
	tp := topology.New(4, 2)
	g := NewGenerator(NewUniform(tp), Fixed(2), 100)
	r := rng.New(9)
	for i := 0; i < 100; i++ {
		if gap, ok := g.NextGap(0, r); !ok || gap != 0 {
			t.Fatalf("NextGap = %d, %v at probability clamped to 1, want 0, true", gap, ok)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	tp := topology.New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative load")
		}
	}()
	NewGenerator(NewUniform(tp), Fixed(16), -1)
}

func TestGeneratorDestinationsValid(t *testing.T) {
	tp := topology.New(4, 2)
	g := NewGenerator(NewUniform(tp), Bimodal{Short: 16, Long: 64, PShort: 0.6}, 0.9)
	r := rng.New(15)
	if err := quick.Check(func(srcRaw uint8) bool {
		src := int(srcRaw) % tp.Nodes()
		dst, length, ok := g.Next(src, r)
		if !ok {
			return true
		}
		return dst != src && dst >= 0 && dst < tp.Nodes() && (length == 16 || length == 64)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPatternNames(t *testing.T) {
	tp := torus83()
	for _, tc := range []struct {
		p    Pattern
		want string
	}{
		{NewUniform(tp), "uniform"},
		{NewLocality(tp, 2), "locality(r=2)"},
		{NewBitReversal(tp), "bit-reversal"},
		{NewPerfectShuffle(tp), "perfect-shuffle"},
		{NewButterfly(tp), "butterfly"},
		{NewHotSpot(tp, 0, 0.05), "hot-spot(5%@0)"},
	} {
		if tc.p.Name() != tc.want {
			t.Errorf("Name() = %q, want %q", tc.p.Name(), tc.want)
		}
	}
}
