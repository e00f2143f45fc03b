package harness

import (
	"fmt"
	"testing"

	"wormnet/internal/spec"
)

// benchGrid is a 12-point load sweep on a 16-node torus, sized so one
// iteration is a realistic mini-experiment rather than a trivial stub.
func benchGrid() []Point {
	pts := make([]Point, 12)
	for i := range pts {
		r := spec.Default()
		r.K, r.N = 4, 2
		r.Load = 0.1 + 0.05*float64(i)
		r.Warmup, r.Measure = 200, 1000
		pts[i] = Point{Key: fmt.Sprintf("load=%.2f", r.Load), Config: simConfig(r)}
	}
	return pts
}

func benchSweep(b *testing.B, workers int) {
	pts := benchGrid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(pts, Options{Workers: workers, BaseSeed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res[0].OK() {
			b.Fatal(res[0].Err())
		}
	}
}

// BenchmarkSweepSerial and BenchmarkSweep4Workers measure the wall-clock
// win of the worker pool on the same 12-point grid; the ratio is the
// sweep-level speedup (compare with `go test -bench Sweep -cpu 4`).
func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweep2Workers(b *testing.B) { benchSweep(b, 2) }
func BenchmarkSweep4Workers(b *testing.B) { benchSweep(b, 4) }
