// Package snap is the byte-level half of sim.Engine.Snapshot and Restore:
// fixed-width little-endian append helpers and a bounds-checked Reader. Every
// package that owns a share of the engine's state (router, detect, probe,
// recovery, traffic, rng, stats) writes and reads it through these, so the
// encoding has one definition of "an integer", "a length" and "a truncated
// input". The writers of the fabric, the engine's lists, recovery and the
// detectors take a Mode, which also lets them write the model checker's
// canonical state key (sim.Engine.AppendCanonical) from the same code.
//
// The Reader is built for hostile input. An error is sticky: after the first
// failed read every later read returns zero, so decoders check Err once per
// section instead of after every field. A length is accepted only if the
// bytes left could hold that many elements, which bounds whatever a decoder
// allocates to a small multiple of the input's size.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports input that ended inside a value.
var ErrTruncated = errors.New("snap: truncated input")

// Bool appends v as one byte, 0 or 1.
func Bool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// U32 appends v as four little-endian bytes.
func U32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// I32 appends v as four little-endian bytes (two's complement).
func I32(dst []byte, v int32) []byte { return binary.LittleEndian.AppendUint32(dst, uint32(v)) }

// U64 appends v as eight little-endian bytes.
func U64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// I64 appends v as eight little-endian bytes (two's complement).
func I64(dst []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(v)) }

// I64s appends every element of vals as I64 does, with no length prefix: for
// arrays whose length both sides know.
func I64s(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = I64(dst, v)
	}
	return dst
}

// IDs appends a list of 32-bit identifiers: its length as m.U32 writes it,
// then each element as m.I32 does (so the -1 sentinels survive).
func IDs[T ~int32](m Mode, dst []byte, ids []T) []byte {
	dst = m.U32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = m.I32(dst, int32(id))
	}
	return dst
}

// Mode selects which of two encodings a state writer appends.
//
// Exact, the zero Mode, is the snapshot Restore reads back: every field, at
// the fixed widths of U32, I32 and I64.
//
// A Canonical Mode is the model checker's state key: two engines whose
// canonical bytes are equal act alike under equal choices from then on. It
// leaves out what no future decision reads and writes ages clamped where a
// larger age changes nothing. An integer v takes one byte, v+1, while v lies
// in [-1, 254), and otherwise the escape byte 0xff and v's eight bytes (Int):
// the key stays as compact as the tiny fabrics the checker explores allow,
// and no field width bounds the fabric. It is hashed, never read back.
// sim.Engine.AppendCanonical says what it leaves out.
type Mode struct {
	// Canonical selects the state key.
	Canonical bool
	// Now is the cycle a canonical writer measures ages from.
	Now int64
}

// Exact is the zero Mode: the snapshot Restore reads.
var Exact Mode

// Int appends v as a canonical integer (see Mode). Unlike a varint, the
// common case is one compare and one byte, no loop: the checker writes a key
// for every state it reaches.
func Int(dst []byte, v int64) []byte {
	if u := uint64(v + 1); u < 0xff {
		return append(dst, byte(u))
	}
	return I64(append(dst, 0xff), v)
}

// U32 appends a count or length: as U32 does, or as a canonical integer.
func (m Mode) U32(dst []byte, v uint32) []byte {
	if m.Canonical {
		return Int(dst, int64(v))
	}
	return U32(dst, v)
}

// I32 appends v as I32 does, or as a canonical integer.
func (m Mode) I32(dst []byte, v int32) []byte {
	if m.Canonical {
		return Int(dst, int64(v))
	}
	return I32(dst, v)
}

// I64 appends v as I64 does, or as a canonical integer.
func (m Mode) I64(dst []byte, v int64) []byte {
	if m.Canonical {
		return Int(dst, v)
	}
	return I64(dst, v)
}

// PutU32 overwrites the four bytes at dst[at:] with v; with a U32(dst, 0)
// placeholder it writes a section's length once the section is encoded.
func PutU32(dst []byte, at int, v uint32) { binary.LittleEndian.PutUint32(dst[at:], v) }

// Reader decodes what the append helpers wrote. It advances an offset rather
// than re-slicing its input, so a Reader embedded in a heap object costs no
// pointer write per value read. Once an error is recorded the rest of the
// input is skipped, so every later read fails the same length test a
// truncated input fails and no read has to test the error first.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads from b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first error a read or Failf recorded.
func (r *Reader) Err() error { return r.err }

// Failf records a decoding error — a value that is well formed but out of
// range — unless one is already recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
		r.off = len(r.b)
	}
}

// Offset returns the number of bytes read so far.
func (r *Reader) Offset() int { return r.off }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Done returns the recorded error, or an error if input is left over.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("snap: %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Bytes returns the next n bytes without copying, or nil (recording
// ErrTruncated) when fewer are left.
func (r *Reader) Bytes(n int) []byte {
	if uint(n) > uint(len(r.b)-r.off) {
		r.truncated()
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

func (r *Reader) truncated() {
	if r.err == nil {
		r.err = ErrTruncated
	}
	r.off = len(r.b)
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads four little-endian bytes.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// I32 reads four little-endian bytes as a signed value.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// U64 reads eight little-endian bytes.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads eight little-endian bytes as a signed value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// I64s fills dst with len(dst) values I64 wrote, checking the input's length
// once for all of them.
func (r *Reader) I64s(dst []int64) {
	b := r.Bytes(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Len reads a U32 element count and accepts it only if the unread input can
// hold that many elements of elemBytes bytes each (elemBytes >= 1), so a
// decoder that sizes a slice from the result allocates no more than a small
// multiple of the input.
func (r *Reader) Len(elemBytes int) int {
	n := int(r.U32())
	if n > r.Remaining()/elemBytes {
		r.truncated()
		return 0
	}
	return n
}

// ReadIDs reads a list IDs wrote into dst[:0], requiring every element to lie
// in [lo, hi), and returns the filled slice (empty after an error).
func ReadIDs[T ~int32](r *Reader, dst []T, lo, hi int) []T {
	dst = dst[:0]
	b := r.Bytes(4 * r.Len(4))
	for ; len(b) >= 4; b = b[4:] {
		v := int32(binary.LittleEndian.Uint32(b))
		if int(v) < lo || int(v) >= hi {
			r.Failf("snap: identifier %d outside [%d, %d)", v, lo, hi)
			return dst[:0]
		}
		dst = append(dst, T(v))
	}
	return dst
}

// ID reads an I32 identifier that must lie in [lo, hi); after an error it
// returns lo.
func (r *Reader) ID(lo, hi int) int32 {
	v := r.I32()
	if int(v) < lo || int(v) >= hi {
		r.Failf("snap: identifier %d outside [%d, %d)", v, lo, hi)
		return int32(lo)
	}
	return v
}

// Section reads a U32 byte length and returns that many bytes: the share of a
// component with a decoder of its own, which cannot read past it.
func (r *Reader) Section() []byte { return r.Bytes(r.Len(1)) }
