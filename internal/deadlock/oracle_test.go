package deadlock

import (
	"testing"

	"wormnet/internal/router"
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

// blockAt places a blocked message occupying the single VC of channel l
// (header waiting at the downstream router) with the given destination.
func blockAt(t *testing.T, f *router.Fabric, l router.LinkID, dst int) *router.Message {
	t.Helper()
	m := f.NewMessage(int(f.Links[l].Src), dst, 16, 0)
	m.Phase = router.PhaseNetwork
	m.Attempts = 1
	vc := f.FreeVC(l)
	if vc == router.NilVC {
		t.Fatalf("link %d full", l)
	}
	f.Allocate(m, router.NilVC, vc)
	m.HeadVC = vc
	f.VCs[vc].Flits = 1
	f.VCs[vc].HasHeader = true
	return m
}

func ids(ms ...*router.Message) map[router.MsgID]bool {
	set := map[router.MsgID]bool{}
	for _, m := range ms {
		set[m.ID] = true
	}
	return set
}

func TestEmptyNetworkHasNoDeadlock(t *testing.T) {
	f := ringFabric(t)
	o := New(f)
	if got := o.Deadlocked(); len(got) != 0 {
		t.Fatalf("deadlock in empty network: %v", got)
	}
}

// TestFullRingCycleIsDeadlocked: eight messages each hold channel c(i) and
// need c(i+1): the canonical cycle. All eight are truly deadlocked.
func TestFullRingCycleIsDeadlocked(t *testing.T) {
	f := ringFabric(t)
	o := New(f)
	var ms []*router.Message
	for i := 0; i < 8; i++ {
		// Header at node (i+1)%8, destination 3 hops further clockwise:
		// the only minimal direction is X+ through channel c(i+1).
		ms = append(ms, blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8))
	}
	got := o.Deadlocked()
	if len(got) != 8 {
		t.Fatalf("deadlocked set has %d messages, want 8", len(got))
	}
	want := ids(ms...)
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected member %d", id)
		}
	}
	for _, m := range ms {
		if !o.Contains(m.ID) {
			t.Fatalf("Contains(%d) false", m.ID)
		}
	}
}

// TestChainBehindAdvancingMessageIsNotDeadlocked: the Figure 2
// configuration. A chain of blocked messages whose head channel is held by
// nobody (or by an advancing message) can always drain.
func TestChainBehindAdvancingMessageIsNotDeadlocked(t *testing.T) {
	f := ringFabric(t)
	o := New(f)
	// Messages on c0, c1, c2 each waiting for the next channel; c3 is free.
	for i := 0; i < 3; i++ {
		blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8)
	}
	if got := o.Deadlocked(); len(got) != 0 {
		t.Fatalf("false deadlock: %v", got)
	}
}

// TestChainBehindBusyAdvancingMessage: like Figure 2 with A present: the
// head of the chain waits on a channel held by a message that is NOT
// blocked (A is advancing). Still no deadlock.
func TestChainBehindBusyAdvancingMessage(t *testing.T) {
	f := ringFabric(t)
	o := New(f)
	for i := 0; i < 3; i++ {
		blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8)
	}
	// A holds c3 but is advancing (Attempts == 0): not blocked.
	a := blockAt(t, f, f.NetLink(3, 0), 7)
	a.Attempts = 0
	if got := o.Deadlocked(); len(got) != 0 {
		t.Fatalf("false deadlock behind advancing message: %v", got)
	}
}

// TestEscapeThroughSecondVC: with several virtual channels, a cycle on one
// VC is not a deadlock while another VC of a requested channel is free.
func TestEscapeThroughSecondVC(t *testing.T) {
	f, err := router.NewFabric(topology.New(8, 1),
		router.Config{VCsPerLink: 2, BufFlits: 4, InjPorts: 1, DelPorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := New(f)
	for i := 0; i < 8; i++ {
		blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8)
	}
	// Each channel still has a free VC: everyone can escape.
	if got := o.Deadlocked(); len(got) != 0 {
		t.Fatalf("false deadlock with free VCs: %v", got)
	}
	// Fill the second VC of every channel with blocked messages too: now
	// it is a real deadlock involving all 16.
	for i := 0; i < 8; i++ {
		blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8)
	}
	if got := o.Deadlocked(); len(got) != 16 {
		t.Fatalf("deadlocked set has %d messages, want 16", len(got))
	}
}

// TestVictimRemovalBreaksDeadlock: draining one member (as recovery would)
// leaves the rest escapable.
func TestVictimRemovalBreaksDeadlock(t *testing.T) {
	f := ringFabric(t)
	o := New(f)
	var ms []*router.Message
	for i := 0; i < 8; i++ {
		ms = append(ms, blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8))
	}
	if len(o.Deadlocked()) != 8 {
		t.Fatal("setup: no deadlock")
	}
	// Recovery marks ms[0]: it is draining, no longer blocked. A pure phase
	// change is invisible to the fabric's generation counter, so the owner
	// must invalidate the cached set explicitly (as sim.Engine.mark does).
	ms[0].Phase = router.PhaseRecovering
	o.Invalidate()
	if got := o.Deadlocked(); len(got) != 0 {
		t.Fatalf("deadlock persists after victim marked: %v", got)
	}
}

// TestCachedResultAndGenTracking: the cached set is returned while the
// fabric generation is unchanged, a VC release invalidates it
// automatically, and CrossCheck accepts a correctly maintained cache.
func TestCachedResultAndGenTracking(t *testing.T) {
	f := ringFabric(t)
	o := New(f)
	var ms []*router.Message
	for i := 0; i < 8; i++ {
		ms = append(ms, blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8))
	}
	if len(o.Deadlocked()) != 8 {
		t.Fatal("setup: no deadlock")
	}
	if err := o.CrossCheck(); err != nil {
		t.Fatalf("CrossCheck on fresh cache: %v", err)
	}
	// Unchanged fabric: repeated evaluations answer from the cache.
	if len(o.Deadlocked()) != 8 || len(o.Deadlocked()) != 8 {
		t.Fatal("cached evaluation diverged")
	}
	// Releasing one worm bumps the fabric generation; the next evaluation
	// must recompute without an explicit Invalidate.
	f.ReleaseWorm(ms[0])
	ms[0].Phase = router.PhaseAborted
	if got := o.Deadlocked(); len(got) != 0 {
		t.Fatalf("stale cache survived a VC release: %v", got)
	}
	if err := o.CrossCheck(); err != nil {
		t.Fatalf("CrossCheck after release: %v", err)
	}
}

// TestCrossCheckDetectsMissedInvalidate: a phase mutation hidden from both
// the generation counter and Invalidate makes the cache stale, and
// CrossCheck reports it.
func TestCrossCheckDetectsMissedInvalidate(t *testing.T) {
	f := ringFabric(t)
	o := New(f)
	for i := 0; i < 8; i++ {
		blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8)
	}
	set := o.Deadlocked()
	if len(set) != 8 {
		t.Fatal("setup: no deadlock")
	}
	f.Msg(set[0]).Phase = router.PhaseRecovering // deliberately not reported
	if err := o.CrossCheck(); err == nil {
		t.Fatal("CrossCheck missed a stale cached set")
	}
}

// TestDisjointCycles: two independent deadlocks are both found.
func TestDisjointCycles(t *testing.T) {
	// Two parallel rows of a 4x4 torus, cycling in X.
	f, err := router.NewFabric(topology.New(4, 2),
		router.Config{VCsPerLink: 1, BufFlits: 4, InjPorts: 1, DelPorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	tp := f.Topo
	o := New(f)
	count := 0
	for _, row := range []int{0, 2} {
		for i := 0; i < 4; i++ {
			src := tp.ID([]int{i, row})
			l := f.NetLink(src, 0) // X+ channel
			// Destination one further X+ hop past the header: from header
			// node (i+1, row) the single minimal direction is X+.
			dst := tp.ID([]int{(i + 2) % 4, row})
			_ = dst
			m := f.NewMessage(src, dst, 16, 0)
			m.Phase = router.PhaseNetwork
			m.Attempts = 1
			vc := f.FreeVC(l)
			f.Allocate(m, router.NilVC, vc)
			m.HeadVC = vc
			f.VCs[vc].Flits = 1
			f.VCs[vc].HasHeader = true
			count++
		}
	}
	got := o.Deadlocked()
	if len(got) != count {
		t.Fatalf("deadlocked %d messages, want %d", len(got), count)
	}
}

// TestSoundness: every member of the reported set is blocked and all its
// candidate VCs are held by other members (the defining property).
func TestSoundness(t *testing.T) {
	f := ringFabric(t)
	o := New(f)
	for i := 0; i < 8; i++ {
		blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8)
	}
	set := o.Deadlocked()
	member := map[router.MsgID]bool{}
	for _, id := range set {
		member[id] = true
	}
	for _, id := range set {
		m := f.Msg(id)
		node := f.RouterOf(f.LinkOfVC(m.HeadVC))
		for _, l := range f.Candidates(m, node, nil) {
			link := &f.Links[l]
			for v := int32(0); v < link.NumVC; v++ {
				occ := f.VCs[link.FirstVC+router.VCID(v)].Occupant
				if occ == router.NilMsg || !member[occ] {
					t.Fatalf("member %d has an escape through link %d", id, l)
				}
			}
		}
	}
}
