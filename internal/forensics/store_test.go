package forensics

import (
	"testing"
	"unsafe"
)

// TestChunksRunsNeverStraddle: a run that does not fit in the current chunk
// starts the next one, comes back with its capacity capped, and never
// moves once handed out.
func TestChunksRunsNeverStraddle(t *testing.T) {
	s := chunks[int]{size: 4}
	var runs [][]int
	for i, w := range []struct{ n, chunk, off int }{{3, 0, 0}, {2, 1, 0}, {1, 1, 2}, {4, 2, 0}, {1, 3, 0}} {
		chunk, off, r := s.run(w.n)
		if chunk != w.chunk || off != w.off || len(r) != w.n || cap(r) != w.n {
			t.Fatalf("run %d of %d: chunk %d off %d len %d cap %d, want chunk %d off %d len=cap=%d",
				i, w.n, chunk, off, len(r), cap(r), w.chunk, w.off, w.n)
		}
		for j := range r {
			r[j] = i
		}
		runs = append(runs, r)
	}
	_ = append(runs[1], -1) // must copy, not spill into run 2
	for i, r := range runs {
		for _, v := range r {
			if v != i {
				t.Fatalf("run %d holds %v after later runs and an append", i, r)
			}
		}
	}
}

// TestChunksPushAtReset: push fills chunks without gaps, at indexes across
// them, and reset keeps the chunks for the next fill.
func TestChunksPushAtReset(t *testing.T) {
	s := chunks[int]{size: 3}
	for i := 0; i < 7; i++ {
		s.push(i)
	}
	if s.len() != 7 || len(s.dir) != 3 {
		t.Fatalf("len %d in %d chunks, want 7 in 3", s.len(), len(s.dir))
	}
	for i := 0; i < 7; i++ {
		if *s.at(i) != i {
			t.Fatalf("at(%d) = %d", i, *s.at(i))
		}
	}
	first := s.at(0)
	s.reset()
	if s.len() != 0 {
		t.Fatalf("len %d after reset", s.len())
	}
	for i := 0; i < 4; i++ {
		s.push(10 + i)
	}
	if s.at(0) != first || len(s.dir) != 3 || s.len() != 4 || *s.at(3) != 13 {
		t.Fatalf("reset did not reuse the chunks: %d chunks, len %d", len(s.dir), s.len())
	}
}

// TestMarkRecordIsSmall pins the bytes a mark costs the open episode
// before its chain: DESIGN.md §14 quotes it.
func TestMarkRecordIsSmall(t *testing.T) {
	if n := unsafe.Sizeof(markRec{}); n != 56 {
		t.Errorf("markRec is %d bytes, want 56", n)
	}
}
