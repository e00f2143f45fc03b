package rng

import (
	"math"
	"testing"
	"testing/quick"

	"wormnet/internal/snap"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream matched parent %d times", same)
	}
}

func TestDeriveDistinctIndices(t *testing.T) {
	// Streams for different point indices of the same sweep must be
	// independent: no collisions among the derived seeds, and no correlated
	// values between the resulting streams.
	seen := map[uint64]bool{}
	for point := uint64(0); point < 64; point++ {
		for rep := uint64(0); rep < 8; rep++ {
			s := Derive(1, point, rep)
			if seen[s] {
				t.Fatalf("seed collision at (point=%d, rep=%d)", point, rep)
			}
			seen[s] = true
		}
	}
	a := New(Derive(1, 0, 0))
	b := New(Derive(1, 1, 0))
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for point 0 and 1 matched %d times in 1000 draws", same)
	}
}

func TestDeriveReproducible(t *testing.T) {
	// The same (seed, indices) path yields the same stream every time.
	a := New(Derive(7, 3, 2))
	b := New(Derive(7, 3, 2))
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("repeated derivation diverged at step %d", i)
		}
	}
}

func TestDeriveStableAcrossRestarts(t *testing.T) {
	// Golden values: Derive is a pure function of its arguments, so these
	// must hold in every process on every platform. A failure here means the
	// derivation changed and old checkpoint journals no longer describe the
	// streams they were recorded from.
	golden := []struct {
		seed    uint64
		indices []uint64
		want    uint64
	}{
		{1, nil, 0x910a2dec89025cc1},
		{1, []uint64{0}, 0x5e41ab087439611e},
		{1, []uint64{0, 0}, 0xb18a02f46d8d86c3},
		{1, []uint64{1, 0}, 0xc22bdfbf79ce0d60},
		{1, []uint64{0, 1}, 0xae1bb8ad37bd2ccf},
		{42, []uint64{7, 3}, 0x7a36c2ff5c8d5d0e},
	}
	for _, g := range golden {
		if got := Derive(g.seed, g.indices...); got != g.want {
			t.Errorf("Derive(%d, %v) = %#x, want %#x", g.seed, g.indices, got, g.want)
		}
	}
	// And the stream seeded from a derived value is itself stable.
	s := New(Derive(42, 7, 3))
	for i, want := range []uint64{0x5008729dbae83502, 0x2bf01d9fa5a22890, 0xc478ea52ccf4aec3} {
		if got := s.Uint64(); got != want {
			t.Errorf("draw %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestForkDoesNotAdvanceParent(t *testing.T) {
	a := New(99)
	b := New(99)
	_ = a.Fork(5)
	_ = a.Fork(6)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Fork advanced the parent (diverged at step %d)", i)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(99)
	f5 := parent.Fork(5)
	f6 := parent.Fork(6)
	f5again := parent.Fork(5)
	same56 := 0
	for i := 0; i < 1000; i++ {
		v5, v6 := f5.Uint64(), f6.Uint64()
		if v5 == v6 {
			same56++
		}
		if v5 != f5again.Uint64() {
			t.Fatal("Fork(5) is not reproducible at the same parent state")
		}
	}
	if same56 > 0 {
		t.Fatalf("Fork(5) and Fork(6) matched %d times in 1000 draws", same56)
	}
	// Forks taken at different parent states differ even with equal indices.
	parent.Uint64()
	later := parent.Fork(5)
	if later.Uint64() == New(99).Fork(5).Uint64() {
		t.Error("forks at different parent states coincided")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := s.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	s := New(11)
	const n, draws = 10, 100_000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	for i := 0; i < 100_000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / 100_000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(9)
	hits := 0
	const draws = 100_000
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency %.4f", got)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	if s.Bool(-1) {
		t.Error("Bool(-1) returned true")
	}
	if !s.Bool(2) {
		t.Error("Bool(2) returned false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	for n := 0; n <= 20; n++ {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffle(t *testing.T) {
	s := New(17)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	wantSum := 0
	for _, v := range orig {
		wantSum += v
	}
	if sum != wantSum {
		t.Fatalf("shuffle altered elements: %v", xs)
	}
}

func TestExpMean(t *testing.T) {
	s := New(19)
	const draws = 200_000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := s.Exp(10)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-10) > 0.2 {
		t.Errorf("Exp(10) mean %.3f", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(23)
	const p, draws = 0.25, 200_000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(s.Geometric(p))
	}
	want := (1 - p) / p // mean of geometric on {0,1,...}
	if mean := sum / draws; math.Abs(mean-want) > 0.1 {
		t.Errorf("Geometric(%.2f) mean %.3f, want about %.3f", p, mean, want)
	}
	if v := s.Geometric(1); v != 0 {
		t.Errorf("Geometric(1) = %d, want 0", v)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(17)
	}
}

// TestSnapshotResumesStream: a Source restored from a snapshot continues the
// stream exactly where the snapshotted one was; the all-zero state and short
// input are refused.
func TestSnapshotResumesStream(t *testing.T) {
	a := New(42)
	for i := 0; i < 100; i++ {
		a.Uint64()
	}
	b := New(7)
	r := snap.NewReader(a.AppendSnapshot(nil))
	b.RestoreSnapshot(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d after restore: %#x, original %#x", i, y, x)
		}
	}
	for name, in := range map[string][]byte{"all-zero state": make([]byte, 32), "short": make([]byte, 31)} {
		r := snap.NewReader(in)
		New(1).RestoreSnapshot(&r)
		if r.Done() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
