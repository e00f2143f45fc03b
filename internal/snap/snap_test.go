package snap

import (
	"errors"
	"strings"
	"testing"
)

// TestRoundTrip writes one of everything and reads it back.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = append(b, 200)
	b = Bool(b, true)
	b = U32(b, 1<<31)
	b = I32(b, -1)
	b = U64(b, 1<<63)
	b = I64(b, -2)
	b = IDs(b, []int32{3, -1, 7})
	at := len(b)
	b = U32(b, 0)
	b = append(b, "xyz"...)
	PutU32(b, at, 3)
	b = I64s(b, []int64{10, -11})

	r := NewReader(b)
	if r.U8() != 200 || r.U8() != 1 || r.U32() != 1<<31 || r.I32() != -1 || r.U64() != 1<<63 || r.I64() != -2 {
		t.Fatal("scalars did not round-trip")
	}
	ids := ReadIDs(&r, []int32{9, 9, 9, 9}, -1, 8)
	if len(ids) != 3 || ids[0] != 3 || ids[1] != -1 || ids[2] != 7 {
		t.Fatalf("ids = %v", ids)
	}
	if sec := r.Section(); string(sec) != "xyz" {
		t.Fatalf("section = %q", sec)
	}
	var pair [2]int64
	r.I64s(pair[:])
	if pair != [2]int64{10, -11} {
		t.Fatalf("I64s = %v", pair)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRefuses: each way input can be wrong is an error, the error is
// sticky, and a length the input cannot hold is refused before anything is
// sized from it.
func TestReaderRefuses(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"short u32", []byte{1, 2, 3}, func(r *Reader) { r.U32() }, "truncated"},
		{"short i64 block", make([]byte, 15), func(r *Reader) { r.I64s(make([]int64, 2)) }, "truncated"},
		{"id below range", I32(nil, -2), func(r *Reader) { r.ID(-1, 4) }, "identifier -2 outside [-1, 4)"},
		{"id at upper bound", I32(nil, 4), func(r *Reader) { r.ID(-1, 4) }, "identifier 4"},
		{"list longer than input", U32(nil, 1<<30), func(r *Reader) { ReadIDs(r, []int32(nil), 0, 1) }, "truncated"},
		{"list element out of range", IDs(nil, []int32{0, 5}), func(r *Reader) {
			if got := ReadIDs(r, []int32(nil), 0, 5); len(got) != 0 {
				panic("ReadIDs returned elements of a refused list")
			}
		}, "identifier 5"},
		{"section longer than input", append(U32(nil, 5), 1, 2), func(r *Reader) { r.Section() }, "truncated"},
		{"trailing bytes", []byte{1, 0}, func(r *Reader) { r.U8() }, "1 trailing bytes"},
	}
	for _, tc := range cases {
		r := NewReader(tc.in)
		tc.read(&r)
		err := r.Done()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
			continue
		}
		if r.U64() != 0 || r.Len(1) != 0 || r.Bytes(1) != nil || r.Remaining() != 0 || r.Done() != err {
			t.Errorf("%s: reads after the error still yield data", tc.name)
		}
	}
	r := NewReader([]byte{1})
	r.U32()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("truncation is reported as %v, want ErrTruncated", r.Err())
	}
	r.Failf("later")
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Error("a later Failf replaced the first error")
	}
}
