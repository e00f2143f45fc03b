package mc

import (
	"bytes"
	"testing"

	"wormnet/internal/trace"
)

// dblfaceParents samples the double-face space: walks from the root, each
// taking at every cycle the sibling its walk number and the cycle pick
// (counting odometer steps from the default vector), snapshotted after every
// cycle. The runner must be built as the restoring ones are: the fingerprint
// covers the oracle period a recorder switches on.
func dblfaceParents(t *testing.T, o *Options, walks, depth int) [][]byte {
	t.Helper()
	r, err := o.newRunner(trace.NewRecorder(16))
	if err != nil {
		t.Fatal(err)
	}
	root := r.snapshot(nil)
	var parents [][]byte
	for w := 0; w < walks; w++ {
		at := root
		for c := 0; c < depth; c++ {
			var trial []uint8
			for k := 0; ; k++ {
				if err := r.restore(at); err != nil {
					t.Fatal(err)
				}
				eff, arity, err := r.step(trial)
				if err != nil {
					t.Fatal(err)
				}
				next := nextTrial(eff, arity)
				if k == (w*7+c*3)%5 || next == nil {
					break
				}
				trial = next
			}
			at = r.snapshot(nil)
			parents = append(parents, at)
		}
	}
	return parents
}

// TestRestoreCopyMatchesDecodeOnDblface holds the engine's restore copy to a
// decode on the states the checker actually expands: a sample of double-face
// parents at depths 1 to 10, each restored into a runner, run 8 cycles into a
// future that is abandoned and restored again — from the copy, as every
// sibling trial is — and restored once into a fresh runner. Both must
// snapshot to the same bytes, and after 64 more cycles each, to the same
// bytes again, having written the same trace.
func TestRestoreCopyMatchesDecodeOnDblface(t *testing.T) {
	o := Options{K: 2, N: 2, Mechanism: "ndm", Script: dblface22}
	if err := o.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	var abandoned, copied, decoded bytes.Buffer
	rec := trace.NewStreaming(&abandoned, 16)
	r, err := o.newRunner(rec)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range dblfaceParents(t, &o, 8, 10) {
		if err := r.restore(p); err != nil {
			t.Fatal(err)
		}
		if err := r.stepPath(make([][]uint8, 8)); err != nil {
			t.Fatal(err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		copied.Reset()
		rec.SetSink(&copied)
		if err := r.restore(p); err != nil {
			t.Fatal(err)
		}

		decoded.Reset()
		freshRec := trace.NewStreaming(&decoded, 16)
		fresh, err := o.newRunner(freshRec)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.restore(p); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			if got, want := r.snapshot(nil), fresh.snapshot(nil); !bytes.Equal(got, want) {
				t.Fatalf("parent %d, %d cycles on: the copy snapshots to %d bytes, the decode to %d, and they differ", i, 64*round, len(got), len(want))
			}
			if round == 0 {
				for _, x := range []*runner{r, fresh} {
					if err := x.stepPath(make([][]uint8, 64)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := freshRec.Flush(); err != nil {
			t.Fatal(err)
		}
		if copied.Len() == 0 || !bytes.Equal(copied.Bytes(), decoded.Bytes()) {
			t.Fatalf("parent %d: trace after the copy (%d bytes) differs from the trace after the decode (%d bytes)", i, copied.Len(), decoded.Len())
		}
	}
}

// BenchmarkRestoreDblfaceParent times one runner restore of a depth-4
// double-face parent, what each sibling trial of its expansion starts with.
// decode alternates the parent with a sibling state of the same depth, so
// every call decodes; repeat restores the parent every call, so every call
// after the first loads the engine's restore copy.
func BenchmarkRestoreDblfaceParent(b *testing.B) {
	o := Options{K: 2, N: 2, Mechanism: "ndm", Script: dblface22}
	if err := o.applyDefaults(); err != nil {
		b.Fatal(err)
	}
	r, err := o.newRunner(nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.stepPath(make([][]uint8, 3)); err != nil {
		b.Fatal(err)
	}
	depth3 := r.snapshot(nil)
	eff, arity, err := r.step(nil)
	if err != nil {
		b.Fatal(err)
	}
	parent := r.snapshot(nil)
	trial := nextTrial(eff, arity)
	if trial == nil {
		b.Fatal("the parent has no sibling")
	}
	if err := r.restore(depth3); err != nil {
		b.Fatal(err)
	}
	if _, _, err := r.step(trial); err != nil {
		b.Fatal(err)
	}
	sibling := r.snapshot(nil)
	if own := 1 + len(r.budget); bytes.Equal(parent[:len(parent)-own], sibling[:len(sibling)-own]) {
		b.Fatal("the parent and its sibling share their engine bytes")
	}
	for _, bc := range []struct {
		name string
		srcs [2][]byte
	}{
		{"decode", [2][]byte{parent, sibling}},
		{"repeat", [2][]byte{parent, parent}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.restore(bc.srcs[i&1]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(parent)), "B/parent")
		})
	}
}
