package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wormnet/internal/router"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.BeginCycle(1)
	r.Emit(KindInject, 1, 2, 3, 4, 5)
	r.SetSink(&bytes.Buffer{})
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("nil recorder reported contents")
	}
	if got := r.Events(nil); got != nil {
		t.Fatalf("nil recorder returned events: %v", got)
	}
	if r.Contains(KindInject) {
		t.Fatal("nil recorder contains events")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Dump(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.BeginCycle(int64(i))
		r.Emit(KindRouteFail, router.MsgID(i), 0, 0, 0, -1)
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	evs := r.Events(nil)
	if len(evs) != 4 {
		t.Fatalf("Events returned %d, want 4", len(evs))
	}
	for i, ev := range evs {
		want := int64(6 + i) // oldest-first: cycles 6..9 survive
		if ev.Cycle != want || ev.Msg != router.MsgID(want) {
			t.Fatalf("event %d = cycle %d msg %d, want %d", i, ev.Cycle, ev.Msg, want)
		}
	}
	if !r.Contains(KindRouteFail) || r.Contains(KindDetect) {
		t.Fatal("Contains answered wrong")
	}
}

func TestDefaultCapacity(t *testing.T) {
	if got := len(NewRecorder(0).ring); got != DefaultCapacity {
		t.Fatalf("NewRecorder(0) ring size = %d, want %d", got, DefaultCapacity)
	}
	if got := len(NewRecorder(-5).ring); got != DefaultCapacity {
		t.Fatalf("NewRecorder(-5) ring size = %d, want %d", got, DefaultCapacity)
	}
}

// TestJSONLRoundTrip: every event written through a streaming sink or Dump
// decodes back to the identical Event, including Nil sentinel fields.
func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 0, Kind: KindInject, Msg: 7, Link: 3, Node: 1, Arg: 16, Aux: 9},
		{Cycle: 2, Kind: KindVCFree, Msg: router.NilMsg, Link: 5, Node: -1, Arg: 0, Aux: -1},
		{Cycle: 2, Kind: KindGSet, Msg: 7, Link: 4, Node: 1, Arg: GRuleFirstAttempt, Aux: 12},
		{Cycle: 9, Kind: KindDetect, Msg: 7, Link: router.NilLink, Node: 1, Arg: 1, Aux: -1},
		{Cycle: 11, Kind: KindOracleDeadlock, Msg: 8, Link: router.NilLink, Node: -1, Arg: 3, Aux: -1},
	}

	var stream bytes.Buffer
	r := NewRecorder(len(events))
	r.SetSink(&stream)
	for _, ev := range events {
		r.BeginCycle(ev.Cycle)
		r.Emit(ev.Kind, ev.Msg, ev.Link, ev.Node, ev.Arg, ev.Aux)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	var dumped bytes.Buffer
	if err := r.Dump(&dumped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), dumped.Bytes()) {
		t.Fatalf("sink stream and Dump differ:\n%s\nvs\n%s", stream.Bytes(), dumped.Bytes())
	}

	got, err := Decode(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d round-tripped to %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("Decode accepted malformed JSON")
	}
	if _, err := Decode(strings.NewReader(`{"cycle":1,"kind":"no-such-kind"}` + "\n")); err == nil {
		t.Fatal("Decode accepted an unknown kind")
	}
}

// TestScanReportsPosition: a malformed line aborts the scan naming the line
// and the byte offset it starts at, so corrupt multi-gigabyte traces are
// seekable to the damage.
func TestScanReportsPosition(t *testing.T) {
	good := `{"cycle":1,"kind":"inject","msg":1}` + "\n"
	in := good + good + "{broken\n"
	err := Scan(strings.NewReader(in), func(Event) error { return nil })
	if err == nil {
		t.Fatal("Scan accepted a malformed line")
	}
	if !strings.Contains(err.Error(), "line 3") ||
		!strings.Contains(err.Error(), fmt.Sprintf("byte %d", 2*len(good))) {
		t.Fatalf("err = %v, want line 3 at byte %d", err, 2*len(good))
	}
}

// TestScanRefusesHostileIDs: an id a consumer would index by must be -1 or
// in [0, MaxID], and present where the kind always carries it; otherwise
// the scan stops at that line, before fn sees the event. The first two
// lines once crashed the episode correlator: a negative index, and a link
// id that grew its tables to 1.5 G entries.
func TestScanRefusesHostileIDs(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{`{"cycle":0,"kind":"inject","msg":-5,"link":3,"node":0,"arg":4,"aux":1}`, "inject msg id -5 outside"},
		{`{"cycle":0,"kind":"vc-alloc","msg":0,"link":1500000000,"aux":0}`, "vc-alloc link id 1500000000 outside"},
		{`{"cycle":0,"kind":"detect","msg":1048577,"node":0}`, "detect msg id 1048577 outside"},
		{`{"cycle":0,"kind":"inject","msg":1,"link":0,"node":-2}`, "inject node id -2 outside"},
		{`{"cycle":0,"kind":"probe-return","msg":1,"link":0,"node":0,"arg":3,"aux":2000000}`, "probe-return aux id 2000000 outside"},
		{`{"cycle":0,"kind":"route-ok","msg":1,"link":0,"node":0,"arg":4294967296,"aux":0}`, "route-ok arg id 4294967296 outside"},
		{`{"cycle":0,"kind":"recover-end","node":0}`, "recover-end event without its msg or link"},
		{`{"cycle":0,"kind":"g-set","node":0,"arg":2,"aux":1}`, "g-set event without its msg or link"},
	} {
		good := `{"cycle":0,"kind":"i-set","link":7}` + "\n"
		seen := 0
		err := Scan(strings.NewReader(good+tc.line+"\n"), func(Event) error {
			seen++
			return nil
		})
		prefix := fmt.Sprintf("trace: line 2 (byte %d): ", len(good))
		if err == nil || !strings.HasPrefix(err.Error(), prefix+tc.want) || seen != 1 {
			t.Errorf("%s: err = %v after %d events; want %q after 1", tc.line, err, seen, prefix+tc.want)
		}
	}
	// The bounds themselves are legal, and so is an arg that is not an id.
	ok := fmt.Sprintf(`{"cycle":0,"kind":"route-ok","msg":%d,"link":%d,"node":0,"arg":-1,"aux":%d}`+"\n"+
		`{"cycle":0,"kind":"deliver","msg":0,"node":0,"arg":9000000000}`+"\n", MaxID, MaxID, MaxID)
	if err := Scan(strings.NewReader(ok), func(Event) error { return nil }); err != nil {
		t.Errorf("Scan refused ids at the bounds: %v", err)
	}
}

// TestScanStopsOnCallbackError: fn's error aborts the scan unchanged.
func TestScanStopsOnCallbackError(t *testing.T) {
	in := strings.Repeat(`{"cycle":1,"kind":"inject","msg":1}`+"\n", 5)
	seen := 0
	sentinel := fmt.Errorf("stop")
	err := Scan(strings.NewReader(in), func(Event) error {
		seen++
		if seen == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel || seen != 2 {
		t.Fatalf("err = %v after %d events; want the sentinel after 2", err, seen)
	}
}

func TestKindNames(t *testing.T) {
	for k := KindInvalid + 1; k < numKinds; k++ {
		name := k.String()
		if strings.Contains(name, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v", name, back, ok, k)
		}
	}
	if _, ok := KindByName("invalid"); ok {
		t.Fatal("KindByName resolved the invalid kind")
	}
}

// TestEmitDoesNotAllocate: the ring path must be allocation-free even while
// wrapping, and the streaming path must reuse its encode buffer.
func TestEmitDoesNotAllocate(t *testing.T) {
	r := NewRecorder(8)
	avg := testing.AllocsPerRun(1000, func() {
		r.Emit(KindRouteFail, 1, 2, 3, 4, 5)
	})
	if avg != 0 {
		t.Fatalf("ring Emit allocates %.3f times, want 0", avg)
	}

	var sink bytes.Buffer
	sink.Grow(1 << 20)
	rs := NewRecorder(8)
	rs.SetSink(&sink)
	rs.Emit(KindRouteFail, 1, 2, 3, 4, 5) // warm the encode buffer
	avg = testing.AllocsPerRun(1000, func() {
		rs.Emit(KindRouteFail, 1, 2, 3, 4, 5)
	})
	if avg != 0 {
		t.Fatalf("streaming Emit allocates %.3f times, want 0", avg)
	}
}
