package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/probe"
	"wormnet/internal/rng"
	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/trace"
)

// FuzzCanonicalEquality is the model checker's pruning contract: two engines
// whose canonical bytes (AppendCanonical) are equal take the same steps under
// the same choices. Each input is a FuzzRestore input. Its state is moved into
// pairs of engines set up as internal/mc sets one up — a Chooser, no generated
// traffic, no oracle sweep — and the second engine of each pair is changed:
//
//   - scrambleOmitted changes everything the canonical bytes leave out:
//     whole-run counters, histograms, random streams, round-robin pointers,
//     oracle stamps, message telemetry, Attempts past 2, detector counters
//     past their clamp, CMH's path digests and totals, and the absorbed-flit
//     total. The canonical bytes must stay equal;
//   - moveFlit and dropG change what they must hold, a flit's place in a worm
//     and an NDM G flag. The canonical bytes should differ; where they do not,
//     a field is missing from them, and the pair's futures show it.
//
// Where the canonical bytes are equal, the pair must then, for 64 cycles under
// one choice sequence, fail or not alike, reach equal canonical bytes again and
// write the same trace, but for the attempt counts past 2 route-fail events
// report.
func FuzzCanonicalEquality(f *testing.F) {
	for _, seed := range committedRestoreSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		gate := int(data[0]) % len(fuzzConfigs)
		src, err := New(fuzzConfigs[gate]())
		if err != nil {
			t.Fatal(err)
		}
		if src.Restore(data[1:]) != nil {
			return
		}
		for _, change := range []struct {
			name  string
			apply func(*testing.T, *Engine) bool // false: nothing to change here
			equal bool                           // the canonical bytes must stay equal
		}{
			{"scrambleOmitted", scrambleOmitted, true},
			{"moveFlit", moveFlit, false},
			{"dropG", dropG, false},
		} {
			var traces [2]bytes.Buffer
			a, recA := checkerEngine(t, gate, src, &traces[0], uint64(len(data)))
			b, recB := checkerEngine(t, gate, src, &traces[1], uint64(len(data)))
			if !change.apply(t, b) {
				continue
			}
			if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
				if change.equal {
					t.Fatalf("%s changed the canonical state", change.name)
				}
				continue
			}
			for cycle := 0; cycle < 64; cycle++ {
				errA, errB := a.Step(), b.Step()
				if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
					t.Fatalf("%s, cycle %d: steps failed differently: %v / %v", change.name, cycle, errA, errB)
				}
				if errA != nil {
					break
				}
				if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
					t.Fatalf("%s, cycle %d: equal canonical states stepped to different ones", change.name, cycle)
				}
			}
			if err := errors.Join(recA.Flush(), recB.Flush()); err != nil {
				t.Fatal(err)
			}
			evA, evB := clampedEvents(t, &traces[0]), clampedEvents(t, &traces[1])
			for i := range min(len(evA), len(evB)) {
				if evA[i] != evB[i] {
					t.Fatalf("%s: equal canonical states wrote different traces: event %d is %+v and %+v", change.name, i, evA[i], evB[i])
				}
			}
			if len(evA) != len(evB) {
				t.Fatalf("%s: equal canonical states wrote %d and %d trace events", change.name, len(evA), len(evB))
			}
		}
	})
}

// checkerEngine builds fuzzConfigs[gate] as internal/mc runs an engine — a
// Chooser (drawing from a stream seeded with seed), Load 0, no oracle sweep —
// with a trace streamed into sink, and moves src's state into it: src's
// snapshot under this engine's header, with the generator switched off as
// Load 0 leaves it.
func checkerEngine(t *testing.T, gate int, src *Engine, sink *bytes.Buffer, seed uint64) (*Engine, *trace.Recorder) {
	cfg := fuzzConfigs[gate]()
	cfg.Chooser = &streamChooser{rng.New(seed)}
	cfg.Load, cfg.OracleEvery = 0, 0
	e, rec := tracedEngine(t, cfg, sink)
	header := func(e *Engine) int { return len(snapMagic) + 4 + 4 + len(e.fingerprint()) } // magic, version, length, fingerprint
	body := src.Snapshot(nil)[header(src):]
	if err := e.Restore(append(e.Snapshot(nil)[:header(e)], body...)); err != nil {
		t.Fatalf("moving a restored state under a chooser: %v", err)
	}
	for n := range e.genDue {
		e.genDue[n] = -1
	}
	e.genHeap, e.genDefA, e.genDefB = e.genHeap[:0], e.genDefA[:0], e.genDefB[:0]
	return e, rec
}

// streamChooser takes every decision from a random stream.
type streamChooser struct{ s *rng.Source }

func (c *streamChooser) Choose(_ ChoicePoint, n int) int { return c.s.Intn(n) }

// clampedEvents reads a trace back with every route-fail event's attempt
// count clamped at 2, as the canonical state clamps Attempts: the engine reads
// it only as zero, one or more, and the trace is the one place a larger count
// shows.
func clampedEvents(t *testing.T, b *bytes.Buffer) []trace.Event {
	var evs []trace.Event
	if err := trace.Scan(b, func(ev trace.Event) error {
		if ev.Kind == trace.KindRouteFail {
			ev.Arg = min(ev.Arg, 2)
		}
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return evs
}

// scrambleOmitted changes, in e, what AppendCanonical leaves out, keeping
// what the trace shows: an oracle stamp stays set or unset (its first setting
// emits an oracle-deadlock event), and message generation times, which
// deliveries report, stay as they are.
func scrambleOmitted(t *testing.T, e *Engine) bool {
	c := reflect.ValueOf(&e.st).Elem()
	for i := 0; i < c.NumField(); i++ {
		if f := c.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + 1000)
		}
	}
	for _, h := range []interface{ Add(int64) }{e.latHist, e.delayHist, e.detLatHist} {
		h.Add(77)
	}
	for i := range e.nodeRng {
		e.nodeRng[i] = *rng.New(uint64(i) + 99)
	}
	e.rnd = rng.New(98)
	for id, seen := range e.oracleSeen {
		if seen > 0 {
			e.oracleSeen[id] = seen - 1
		}
	}
	e.oracleSize += 3
	for id := 0; id < e.fab.NumMessages(); id++ {
		m := e.fab.Msg(router.MsgID(id))
		if m.Length == 0 {
			continue
		}
		m.Retries += 5
		m.TrueDeadlock = !m.TrueDeadlock
		m.InjectTime -= 3
		m.DeliverTime += 2
		m.MarkTime -= 1
		m.LastSourceFlit -= 4
		if m.Attempts >= 2 {
			m.Attempts += 3
		}
	}

	// The round-robin pointers close the fabric's exact snapshot.
	fab := e.fab.AppendSnapshot(nil, snap.Exact)
	for l, at := 0, len(fab)-4*e.fab.NumLinks(); l < e.fab.NumLinks(); l, at = l+1, at+4 {
		snap.PutU32(fab, at, uint32(l%3+1))
	}
	restorePart(t, "fabric", fab, e.fab.RestoreSnapshot)

	// The absorbed-flit total closes the recovery engine's.
	rec := e.rec.AppendSnapshot(nil, snap.Exact)
	binary.LittleEndian.PutUint64(rec[len(rec)-8:], binary.LittleEndian.Uint64(rec[len(rec)-8:])+1000)
	restorePart(t, "recovery", rec, e.rec.RestoreSnapshot)

	det := e.caps.Snapshot(nil, snap.Exact)
	switch d := e.det.(type) {
	case *detect.NDM:
		pastClamp(det, e.fab.NumLinks(), d.T2)
	case *detect.PDM:
		pastClamp(det, e.fab.NumLinks(), d.Threshold)
	case *probe.Detector:
		// Each probe's digest follows its five 32-bit fields; the seven
		// totals close the snapshot.
		for i, at := uint32(0), 4; i < binary.LittleEndian.Uint32(det); i, at = i+1, at+5*4+2*8 {
			binary.LittleEndian.PutUint64(det[at+5*4:], ^binary.LittleEndian.Uint64(det[at+5*4:]))
		}
		for at := len(det) - 7*8; at < len(det); at += 8 {
			binary.LittleEndian.PutUint64(det[at:], binary.LittleEndian.Uint64(det[at:])+1000)
		}
	default:
		t.Fatalf("no scramble for detector %s", e.det.Name())
	}
	if err := e.caps.Restore(det); err != nil {
		t.Fatalf("restoring the scrambled detector: %v", err)
	}
	return true
}

// moveFlit moves a body flit of some worm one virtual channel forward, where
// the next channel has room: the worm keeps its flits, header and tail.
func moveFlit(_ *testing.T, e *Engine) bool {
	for u := range e.fab.VCs {
		vc := &e.fab.VCs[u]
		if vc.Occupant == router.NilMsg || vc.Next == router.NilVC || vc.Flits < 2 && (vc.Flits == 0 || vc.HasTail) {
			continue
		}
		if next := &e.fab.VCs[vc.Next]; next.Flits < int32(e.fab.Cfg.BufFlits) {
			vc.Flits--
			next.Flits++
			return true
		}
	}
	return false
}

// dropG sets NDM's first G flag to P.
func dropG(t *testing.T, e *Engine) bool {
	if _, ok := e.det.(*detect.NDM); !ok {
		return false
	}
	det := e.caps.Snapshot(nil, snap.Exact)
	gp := det[8*e.fab.NumLinks():]
	at := bytes.IndexByte(gp, 1)
	if at < 0 {
		return false
	}
	gp[at] = 0
	if err := e.caps.Restore(det); err != nil {
		t.Fatalf("restoring NDM with a G flag dropped: %v", err)
	}
	return true
}

// pastClamp raises every inactivity counter of an NDM or PDM snapshot (one
// I64 for each of the links, first) that is already past threshold t.
func pastClamp(det []byte, links int, t int64) {
	for at := 0; at < 8*links; at += 8 {
		if c := int64(binary.LittleEndian.Uint64(det[at:])); c > t {
			binary.LittleEndian.PutUint64(det[at:], uint64(c+1000))
		}
	}
}

// restorePart puts a component's scrambled snapshot back.
func restorePart(t *testing.T, what string, b []byte, restore func(*snap.Reader)) {
	r := snap.NewReader(b)
	restore(&r)
	if err := r.Done(); err != nil {
		t.Fatalf("restoring the scrambled %s: %v", what, err)
	}
}
