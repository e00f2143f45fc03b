package router

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"wormnet/internal/snap"
	"wormnet/internal/topology"
)

// TestMessageSnapshotCoversEveryField sets every field of Message to a
// non-zero value by reflection and round-trips it through appendSnapshot and
// restoreMessage: a field added to the struct but not to both would silently
// reset on sim.Engine.Restore. ID comes from the pool position and the route
// memo is derived (it must come back empty).
func TestMessageSnapshotCoversEveryField(t *testing.T) {
	f := newTestFabric(t, 4, 2)
	var m Message
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fld := v.Field(i); fld.Kind() {
		case reflect.Int32, reflect.Int64:
			fld.SetInt(1)
		case reflect.Uint8:
			fld.SetUint(1)
		case reflect.Bool:
			fld.SetBool(true)
		case reflect.Struct: // Route
			fld.Set(reflect.ValueOf(RouteMemo{Mask: 1, At: 1, Dst: 1}))
		default:
			t.Fatalf("Message.%s has kind %s: teach the snapshot and this test about it", v.Type().Field(i).Name, fld.Kind())
		}
	}
	b := m.appendSnapshot(nil, snap.Exact)
	if len(b) != msgSnapBytes {
		t.Fatalf("appendSnapshot wrote %d bytes, msgSnapBytes is %d", len(b), msgSnapBytes)
	}
	got := Message{Route: RouteMemo{Mask: 3, At: 2, Dst: 2}}
	r := snap.NewReader(b)
	f.restoreMessage(&r, &got, m.ID)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	m.Route = RouteMemo{}
	if got != m {
		t.Errorf("round trip lost a field\n got %+v\nwant %+v", got, m)
	}
}

func newTestFabric(t *testing.T, k, n int) *Fabric {
	t.Helper()
	f, err := NewFabric(topology.New(k, n), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// wormFabric builds a 4x4 fabric holding one three-VC worm (injection port,
// two network hops, header blocked at the front), one queued message and one
// freed pool entry.
func wormFabric(t *testing.T) *Fabric {
	t.Helper()
	f := newTestFabric(t, 4, 2)
	m := f.NewMessage(0, 2, 6, 3)
	m.Phase = PhaseNetwork
	inj := f.FreeVC(f.InjLink(0, 1))
	f.Allocate(m, NilVC, inj)
	hop1 := f.FreeVC(f.NetLink(0, 0))
	f.Allocate(m, inj, hop1)
	hop2 := f.Links[f.NetLink(1, 0)].FirstVC + 1
	f.Allocate(m, hop1, hop2)
	f.VCs[inj].Flits, f.VCs[inj].HasTail = 2, true
	f.VCs[hop1].Flits = 3
	f.VCs[hop2].Flits, f.VCs[hop2].HasHeader = 1, true
	m.HeadVC, m.Injected, m.Attempts, m.BlockedSince = hop2, 6, 2, 40
	f.Links[f.NetLink(0, 0)].AdvanceRR()

	queued := f.NewMessage(5, 9, 4, 17)
	queued.Retries = 2
	freed := f.NewMessage(7, 1, 4, 18)
	f.FreeMessage(freed)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return f
}

func restoreFabric(f *Fabric, b []byte) error {
	r := snap.NewReader(b)
	f.RestoreSnapshot(&r)
	return r.Done()
}

// TestFabricSnapshotRoundTrip restores a snapshot into a fresh fabric and into
// one holding unrelated state: both must end equal to the original, with the
// derived occupancy structures rebuilt (CheckInvariants) and message
// addresses unchanged.
func TestFabricSnapshotRoundTrip(t *testing.T) {
	src := wormFabric(t)
	b := src.AppendSnapshot(nil, snap.Exact)

	busy := newTestFabric(t, 4, 2)
	for i := 0; i < 6; i++ {
		m := busy.NewMessage(i, 15-i, 3, int64(i))
		m.Phase = PhaseNetwork
		vc := busy.FreeVC(busy.InjLink(i, 0))
		busy.Allocate(m, NilVC, vc)
		m.HeadVC = vc
	}
	kept := busy.Msg(1)

	for name, dst := range map[string]*Fabric{"fresh": newTestFabric(t, 4, 2), "busy": busy} {
		if err := restoreFabric(dst, b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := dst.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := dst.AppendSnapshot(nil, snap.Exact); !bytes.Equal(again, b) {
			t.Errorf("%s: snapshot of the restored fabric differs from the bytes restored", name)
		}
		if dst.NumMessages() != 3 || dst.NumOccupied() != 3 || dst.NumBusyLinks() != 3 ||
			dst.Links[dst.NetLink(0, 0)].RR() != 1 {
			t.Errorf("%s: restored fabric has %d messages, %d occupied VCs, %d busy links", name,
				dst.NumMessages(), dst.NumOccupied(), dst.NumBusyLinks())
		}
		if *dst.Msg(0) != *src.Msg(0) || *dst.Msg(1) != *src.Msg(1) {
			t.Errorf("%s: messages differ", name)
		}
		// The freed entry is handed out next, as it would have been.
		if id := dst.NewMessage(0, 1, 1, 0).ID; id != 2 {
			t.Errorf("%s: next message from the pool is %d, want the freed entry 2", name, id)
		}
	}
	if busy.Msg(1) != kept {
		t.Error("restoring moved a surviving pool entry")
	}
}

// TestFabricRestoreRefuses: every prefix of a good snapshot, and snapshots
// whose worms, identifiers or free list contradict one another, are errors.
func TestFabricRestoreRefuses(t *testing.T) {
	src := wormFabric(t)
	good := src.AppendSnapshot(nil, snap.Exact)
	dst := newTestFabric(t, 4, 2)
	for n := 0; n < len(good); n++ {
		if err := restoreFabric(dst, good[:n]); err == nil {
			t.Fatalf("accepted the first %d of %d bytes", n, len(good))
		}
	}
	const msg0 = 4 // first message record, after the pool length
	vcs := 4 + 3*msgSnapBytes + 4 + 4 + 4
	corrupt := []struct {
		name string
		at   int   // offset of a little-endian int32 field
		val  int32 // (the phase byte is the low byte of the int32 written at its offset)
		want string
	}{
		{"destination outside the fabric", msg0 + 4, 99, "0 -> 99"},
		{"more flits injected than the message has", msg0 + 20, 7, "7 injected"},
		{"unknown phase", msg0 + 40, 9, "phase 9"},
		{"header VC outside the fabric", msg0 + 12, 320, "spans VCs"},
		{"header VC off the worm", msg0 + 12, 5, "its header VC is 5"},
		{"flits unaccounted for", msg0 + 24, 1, "6 flits buffered, 6 injected and 1 consumed"},
		{"tail flit before the source sent it", msg0 + 20, 5, "5 of 6 flits injected"},
		{"queued message holding VCs", msg0 + msgSnapBytes + 16, 5, "is queued"},
		{"VC held by a message outside the pool", vcs + 4, 50, "outside the pool"},
		{"VC held by the wrong message", vcs + 4, 1, "held by message 1"},
		{"worm continuing into a free VC", vcs + 8, 2, "held by message -1"},
		{"flits beyond the buffer", vcs + 12, 200, "200 flits"},
		{"free list naming a live message", 4 + 3*msgSnapBytes + 4, 0, "free list holds message 0"},
		{"negative round-robin pointer", vcs + 3*vcSnapBytes, -1, "round-robin pointer -1 for link 0"},
	}
	for _, tc := range corrupt {
		bad := bytes.Clone(good)
		snap.PutU32(bad, tc.at, uint32(tc.val))
		err := restoreFabric(dst, bad)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if err := restoreFabric(dst, good); err != nil {
		t.Fatalf("the untouched snapshot no longer restores: %v", err)
	}
}

// TestFabricCopyRoundTrip: a copy taken of a fabric and put back into a fresh
// fabric, and into one holding other worms, a larger pool and a filled route
// memo, leaves what restoring the fabric's snapshot leaves: the same bytes,
// the occupancy structures consistent (CheckInvariants), route memos empty,
// surviving message addresses kept and a new generation.
func TestFabricCopyRoundTrip(t *testing.T) {
	src := wormFabric(t)
	b := src.AppendSnapshot(nil, snap.Exact)
	src.Msg(0).Route = RouteMemo{Mask: 1, At: 1, Dst: 2}
	var c FabricCopy
	src.CopyTo(&c)

	busy := newTestFabric(t, 4, 2)
	for i := 0; i < 6; i++ {
		m := busy.NewMessage(i, 15-i, 3, int64(i))
		m.Phase = PhaseNetwork
		vc := busy.FreeVC(busy.InjLink(i, 0))
		busy.Allocate(m, NilVC, vc)
		m.HeadVC = vc
		m.Route = RouteMemo{Mask: 2, At: 3, Dst: 4}
	}
	kept := busy.Msg(1)

	for name, dst := range map[string]*Fabric{"fresh": newTestFabric(t, 4, 2), "busy": busy} {
		gen := dst.Gen()
		dst.CopyFrom(&c)
		if err := dst.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := dst.AppendSnapshot(nil, snap.Exact); !bytes.Equal(again, b) {
			t.Errorf("%s: snapshot of the fabric the copy was put into differs from the original's", name)
		}
		for id := 0; id < dst.NumMessages(); id++ {
			if r := dst.Msg(MsgID(id)).Route; r != (RouteMemo{}) {
				t.Errorf("%s: message %d comes back with route memo %+v", name, id, r)
			}
		}
		if dst.Gen() <= gen {
			t.Errorf("%s: generation %d after the copy, %d before", name, dst.Gen(), gen)
		}
	}
	if busy.Msg(1) != kept {
		t.Error("the copy moved a surviving pool entry")
	}
}

// TestFabricCopyClassesEveryField classes every field of Fabric by what
// sim.Engine's restore copy does with it: FabricCopy carries it (copied),
// CopyFrom recomputes it as RestoreSnapshot does (rebuilt), NewFabric fixes
// it for good (configuration), or it means nothing between two operations
// (scratch). A field added without a class fails here, so whoever adds one
// decides which.
func TestFabricCopyClassesEveryField(t *testing.T) {
	classes := map[string]string{
		"Topo": "configuration", "Cfg": "configuration",
		"netLinks": "configuration", "injBase": "configuration", "delBase": "configuration",
		"Links": "copied", // the round-robin pointers; the rest is configuration
		"VCs":   "copied", "msgs": "copied", "free": "copied",
		"busy": "copied", "occBits": "copied", "busyBits": "copied",
		"gen":     "rebuilt", // bumped, as by RestoreSnapshot
		"wormBuf": "scratch", "freeSeen": "scratch", "auditBusy": "scratch", "auditWant": "scratch",
	}
	tp := reflect.TypeOf(Fabric{})
	for i := 0; i < tp.NumField(); i++ {
		name := tp.Field(i).Name
		if _, ok := classes[name]; !ok {
			t.Errorf("Fabric.%s has no restore-copy class: copy it in CopyTo/CopyFrom, rebuild it in CopyFrom, or class it configuration or scratch here", name)
		}
		delete(classes, name)
	}
	for name := range classes {
		t.Errorf("class given for Fabric.%s, which does not exist", name)
	}
}
