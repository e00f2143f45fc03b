package recovery

import (
	"bytes"
	"testing"

	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/topology"
)

func ringFabric(t *testing.T) *router.Fabric {
	t.Helper()
	f, err := router.NewFabric(topology.New(8, 1),
		router.Config{VCsPerLink: 1, BufFlits: 4, InjPorts: 1, DelPorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// buildWorm lays a message across the given ring channels with the header
// in the last one, distributing flits flitsPerVC to each and placing the
// tail bit in the first.
func buildWorm(t *testing.T, f *router.Fabric, links []router.LinkID, flitsPerVC int32) *router.Message {
	t.Helper()
	total := int32(len(links)) * flitsPerVC
	m := f.NewMessage(int(f.Links[links[0]].Src), int(f.Links[links[len(links)-1]].Dst), int(total), 0)
	m.Phase = router.PhaseNetwork
	prev := router.NilVC
	for _, l := range links {
		vc := f.FreeVC(l)
		f.Allocate(m, prev, vc)
		f.VCs[vc].Flits = flitsPerVC
		prev = vc
	}
	m.HeadVC = prev
	f.VCs[prev].HasHeader = true
	f.VCs[f.Links[links[0]].FirstVC].HasTail = true
	m.Injected = total
	return m
}

type recording struct {
	freed     []router.LinkID
	recovered []int // node of each Recovered callback
	last      *router.Message
}

func (r *recording) hooks() Hooks {
	return Hooks{
		VCFreed: func(l router.LinkID) { r.freed = append(r.freed, l) },
		Recovered: func(m *router.Message, node int) {
			r.recovered = append(r.recovered, node)
			r.last = m
		},
	}
}

func TestRegressiveReleasesEverything(t *testing.T) {
	f := ringFabric(t)
	rec := &recording{}
	e := New(f, Regressive, rec.hooks())
	links := []router.LinkID{f.NetLink(0, 0), f.NetLink(1, 0), f.NetLink(2, 0)}
	m := buildWorm(t, f, links, 2)

	e.Mark(m, 100)
	if !m.Marked || m.MarkTime != 100 || m.Phase != router.PhaseAborted {
		t.Fatalf("message state after mark: %+v", m)
	}
	if len(rec.freed) != 3 {
		t.Fatalf("freed %d channels, want 3", len(rec.freed))
	}
	if len(rec.recovered) != 1 || rec.recovered[0] != int(m.Src) {
		t.Fatalf("recovered at %v, want source %d", rec.recovered, m.Src)
	}
	for _, l := range links {
		if f.BusyVCs(l) != 0 {
			t.Fatalf("link %d still busy", l)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProgressiveAbsorbsWholeWorm(t *testing.T) {
	f := ringFabric(t)
	rec := &recording{}
	e := New(f, Progressive, rec.hooks())
	links := []router.LinkID{f.NetLink(0, 0), f.NetLink(1, 0)}
	m := buildWorm(t, f, links, 2) // 4 flits total, header at node 2

	e.Mark(m, 50)
	if m.Phase != router.PhaseRecovering {
		t.Fatalf("phase %v", m.Phase)
	}
	if e.Active() != 1 {
		t.Fatalf("active %d", e.Active())
	}

	// The head VC holds 2 flits; absorb them.
	e.Step()
	e.Step()
	if m.Consumed != 2 {
		t.Fatalf("consumed %d, want 2", m.Consumed)
	}
	// Head buffer now empty; upstream flits have not moved (no engine in
	// this test): Step must idle without error.
	e.Step()
	if m.Consumed != 2 {
		t.Fatal("absorbed a non-existent flit")
	}

	// Simulate the transfer stage forwarding the remaining two flits
	// (including the tail) into the head VC.
	headLink := links[1]
	tailVC := f.Links[links[0]].FirstVC
	f.MoveFlit(tailVC)
	f.MoveFlit(tailVC) // tail passes; upstream VC freed by the fabric
	if f.BusyVCs(links[0]) != 0 {
		t.Fatal("upstream VC not released by tail passage")
	}

	e.Step()
	e.Step()
	if m.Consumed != 4 {
		t.Fatalf("consumed %d, want 4", m.Consumed)
	}
	if e.Active() != 0 {
		t.Fatal("still active after full absorption")
	}
	if f.BusyVCs(headLink) != 0 {
		t.Fatal("head VC not released")
	}
	// Recovered at the node that held the header.
	if len(rec.recovered) != 1 || rec.recovered[0] != f.RouterOf(headLink) {
		t.Fatalf("recovered at %v, want %d", rec.recovered, f.RouterOf(headLink))
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProgressiveSingleChannelWorm(t *testing.T) {
	f := ringFabric(t)
	rec := &recording{}
	e := New(f, Progressive, rec.hooks())
	m := buildWorm(t, f, []router.LinkID{f.NetLink(3, 0)}, 3)

	e.Mark(m, 0)
	for i := 0; i < 3; i++ {
		e.Step()
	}
	if m.Consumed != 3 || e.Active() != 0 {
		t.Fatalf("consumed=%d active=%d", m.Consumed, e.Active())
	}
	if rec.recovered[0] != 4 {
		t.Fatalf("recovered at node %d, want 4", rec.recovered[0])
	}
}

func TestHooksValidation(t *testing.T) {
	f := ringFabric(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without Recovered hook")
		}
	}()
	New(f, Progressive, Hooks{})
}

func TestStyleString(t *testing.T) {
	if Progressive.String() != "progressive" || Regressive.String() != "regressive" {
		t.Error("style names")
	}
	if Style(9).String() == "" {
		t.Error("unknown style empty")
	}
}

func TestVCFreedDefaultHook(t *testing.T) {
	f := ringFabric(t)
	called := false
	e := New(f, Regressive, Hooks{Recovered: func(*router.Message, int) { called = true }})
	m := buildWorm(t, f, []router.LinkID{f.NetLink(0, 0)}, 1)
	e.Mark(m, 0) // must not panic despite nil VCFreed
	if !called {
		t.Fatal("Recovered hook not called")
	}
}

// TestSnapshotRoundTrip: a progressive engine in the middle of absorbing a
// worm snapshots its absorption list and flit total; a second engine over the
// same fabric restored from those bytes finishes the absorption. A list that
// names a message that is not recovering, names one twice, or leaves a
// recovering message out is refused.
func TestSnapshotRoundTrip(t *testing.T) {
	f := ringFabric(t)
	rec := &recording{}
	e := New(f, Progressive, rec.hooks())
	m := buildWorm(t, f, []router.LinkID{f.NetLink(0, 0)}, 2)
	e.Mark(m, 10)
	e.Step()
	b := e.AppendSnapshot(nil)

	other := &recording{}
	e2 := New(f, Progressive, other.hooks())
	r := snap.NewReader(b)
	e2.RestoreSnapshot(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if e2.Active() != 1 || e2.AbsorbedFlits() != 1 || !bytes.Equal(e2.AppendSnapshot(nil), b) {
		t.Fatalf("restored engine absorbs %d messages, %d flits so far", e2.Active(), e2.AbsorbedFlits())
	}

	idle := f.NewMessage(3, 5, 2, 0)
	for name, ids := range map[string][]router.MsgID{
		"message not recovering":      {idle.ID},
		"message listed twice":        {m.ID, m.ID},
		"recovering message left out": {},
		"message outside the pool":    {99},
	} {
		r := snap.NewReader(snap.I64(snap.IDs(nil, ids), 1))
		New(f, Progressive, other.hooks()).RestoreSnapshot(&r)
		if r.Done() == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	for i := 0; i < 8 && e2.Active() > 0; i++ {
		e2.Step()
	}
	if e2.Active() != 0 || len(other.recovered) != 1 || other.last != m {
		t.Errorf("restored engine did not finish the absorption: %d active, recovered %v", e2.Active(), other.recovered)
	}
}
