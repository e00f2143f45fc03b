package probe

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/topology"
)

// ringFixture is a 3-ary 1-cube (a 3-node ring) with one VC per link, the
// smallest fabric that supports a genuine wait-for cycle:
//
//	A holds L01, header at node 1, wants L12 (held by B)
//	B holds L12, header at node 2, wants L20 (held by C)
//	C holds L20, header at node 0, wants L01 (held by A)
type ringFixture struct {
	fab     *router.Fabric
	a, b, c *router.Message
	l01     router.LinkID // node 0 -> node 1
	l12     router.LinkID
	l20     router.LinkID
}

// netLink finds the network channel src -> dst.
func netLink(t *testing.T, f *router.Fabric, src, dst int) router.LinkID {
	t.Helper()
	for l := 0; l < f.NumNetLinks(); l++ {
		lk := &f.Links[l]
		if int(lk.Src) == src && int(lk.Dst) == dst {
			return router.LinkID(l)
		}
	}
	t.Fatalf("no network link %d -> %d", src, dst)
	return router.NilLink
}

// blockWorm parks a single-flit worm of m on the sole VC of link l and
// marks it wait-blocked there.
func blockWorm(f *router.Fabric, m *router.Message, l router.LinkID) {
	vc := f.FreeVC(l)
	f.Allocate(m, router.NilVC, vc)
	m.HeadVC, m.Phase = vc, router.PhaseNetwork
	f.VCs[vc].Flits = 1
	f.VCs[vc].HasHeader = true
	f.VCs[vc].HasTail = true
	m.Attempts = 1
	m.BlockedSince = 0
}

func newRing(t *testing.T) *ringFixture {
	t.Helper()
	topo := topology.New(3, 1)
	rcfg := router.DefaultConfig()
	rcfg.VCsPerLink = 1
	fab, err := router.NewFabric(topo, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &ringFixture{
		fab: fab,
		l01: netLink(t, fab, 0, 1),
		l12: netLink(t, fab, 1, 2),
		l20: netLink(t, fab, 2, 0),
	}
	r.a = fab.NewMessage(0, 2, 1, 10)
	r.b = fab.NewMessage(1, 0, 1, 5)
	r.c = fab.NewMessage(2, 1, 1, 7)
	blockWorm(fab, r.a, r.l01)
	blockWorm(fab, r.b, r.l12)
	blockWorm(fab, r.c, r.l20)
	return r
}

// registerBlocked announces m to the detector the way the engine does on
// its first failed routing attempt.
func registerBlocked(d *Detector, f *router.Fabric, m *router.Message, now int64) bool {
	node := f.RouterOf(f.LinkOfVC(m.HeadVC))
	outs := f.Candidates(m, node, nil)
	return d.RouteFailed(m, f.LinkOfVC(m.HeadVC), outs, true, now)
}

// cycleN runs n empty-transmission EndCycles starting at cycle 1.
func cycleN(d *Detector, n int) int64 {
	now := int64(1)
	for i := 0; i < n; i++ {
		d.EndCycle(now, nil)
		now++
	}
	return now
}

// TestProbeReturnMarksInitiator walks a single probe around the 3-cycle:
// emitted at cycle 1 (one flit on L12), forwarded at cycle 2 (one flit on
// L20), and returning at cycle 3 when it finds L01 held by its own
// initiator. The return schedules the initiator for marking on its next
// failed routing attempt and consumes no flit.
func TestProbeReturnMarksInitiator(t *testing.T) {
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 1, MaxHops: 64})
	r.b.Attempts, r.c.Attempts = 1, 1 // blocked, but only A initiates
	if registerBlocked(d, r.fab, r.a, 0) {
		t.Fatal("RouteFailed marked A before any probe ran")
	}

	now := cycleN(d, 3)
	pt := d.ProbeTotals()
	if pt.Emitted != 1 || pt.Forwarded != 1 || pt.Returned != 1 || pt.Dropped != 0 {
		t.Fatalf("probe lifecycle = %+v, want 1 emitted, 1 forwarded, 1 returned, 0 dropped", pt)
	}
	if pt.Flits != 2 {
		t.Fatalf("probe flits = %d, want 2 (emit + forward; returns are free)", pt.Flits)
	}
	if pt.InFlight != 0 {
		t.Fatalf("probes in flight = %d after return, want 0", pt.InFlight)
	}

	outs := r.fab.Candidates(r.a, 1, nil)
	if !d.RouteFailed(r.a, r.fab.LinkOfVC(r.a.HeadVC), outs, false, now) {
		t.Fatal("RouteFailed did not deliver the pending mark to the initiator")
	}
	if d.RouteFailed(r.a, r.fab.LinkOfVC(r.a.HeadVC), outs, false, now) {
		t.Fatal("pending mark delivered twice")
	}
}

// TestCapabilities: CMH hands the engine a tracer hook, probe totals and a
// snapshot — and no flag counts, because it keeps no channel flags.
// The totals in the report are the detector's live ones.
func TestCapabilities(t *testing.T) {
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 1, MaxHops: 64})
	c := d.Capabilities()
	if c.SetTracer == nil || c.ProbeTotals == nil || c.Snapshot == nil {
		t.Fatalf("missing capability: tracer %v, probe totals %v, snapshot %v",
			c.SetTracer != nil, c.ProbeTotals != nil, c.Snapshot != nil)
	}
	if c.FlagCounts != nil {
		t.Error("CMH reports flag counts it does not keep")
	}
	registerBlocked(d, r.fab, r.a, 0)
	now := cycleN(d, 1)
	if pt := c.ProbeTotals(); pt.Emitted != 1 || pt.InFlight != 1 {
		t.Errorf("probe totals through the report = %+v, want 1 emitted, 1 in flight", pt)
	}
	if len(c.Snapshot(nil, snap.Mode{Canonical: true, Now: now})) == 0 {
		t.Error("empty canonical state")
	}
}

// TestCanonicalCountsHaveNoWidth: every count in the canonical state —
// in-flight probes, blocked initiators, pending marks, a dedupe window's keys
// — and every identifier is a canonical integer (snap.Int) of no fixed width,
// so 257 entries are not the 1 of a single one, 256 keys not an empty window,
// and message 0x01fe not message 0xfe: the model checker cannot merge two
// such states.
func TestCanonicalCountsHaveNoWidth(t *testing.T) {
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 1, MaxHops: 64})
	registerBlocked(d, r.fab, r.a, 0)
	now := cycleN(d, 1)
	if len(d.probes) != 1 || len(d.blocked) != 1 {
		t.Fatalf("%d probes, %d blocked initiators, want 1 and 1", len(d.probes), len(d.blocked))
	}
	canon := func() []byte { return d.Snapshot(nil, snap.Mode{Canonical: true, Now: now}) }
	one := canon()
	for len(d.probes) < 257 {
		d.probes = append(d.probes, d.probes[0])
	}
	manyProbes := canon()
	d.probes = d.probes[:1]
	blocked := d.blocked[0]
	for len(d.blocked) < 257 {
		d.blocked = append(d.blocked, blocked)
	}
	manyBlocked := canon()
	d.blocked = d.blocked[:1]

	seen := &d.inits[r.a.ID].seen
	for k := uint64(1 << 40); seen.len() < 256; k++ {
		seen.add(k)
	}
	keys256 := canon()
	seen.add(1 << 50)
	keys257 := canon()

	mark := func(id int) []byte {
		for len(d.pendingMark) <= id {
			d.pendingMark = append(d.pendingMark, false)
		}
		d.pendingMark[id] = true
		defer func() { d.pendingMark[id] = false }()
		return canon()
	}
	markLow, markHigh := mark(0xfe), mark(0x01fe)

	if manyProbes[0] != 0xff || binary.LittleEndian.Uint64(manyProbes[1:]) != 257 {
		t.Errorf("257 probes: the canonical state starts % x, want the escape byte and 257", manyProbes[:9])
	}
	for _, tc := range []struct {
		name string
		a, b []byte
	}{
		{"1 and 257 probes", one, manyProbes},
		{"1 and 257 blocked initiators", one, manyBlocked},
		{"256 and 257 window keys", keys256, keys257},
		{"pending marks 0xfe and 0x01fe", markLow, markHigh},
	} {
		if bytes.Equal(tc.a, tc.b) {
			t.Errorf("%s: equal canonical states", tc.name)
		}
	}
}

// TestThreeInitiators registers all three members of the cycle: each
// launches its own probe, and all three return.
func TestThreeInitiators(t *testing.T) {
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 1, MaxHops: 64})
	registerBlocked(d, r.fab, r.a, 0)
	registerBlocked(d, r.fab, r.b, 0)
	registerBlocked(d, r.fab, r.c, 0)

	cycleN(d, 3)
	pt := d.ProbeTotals()
	if pt.Emitted != 3 || pt.Forwarded != 3 || pt.Returned != 3 {
		t.Fatalf("probe lifecycle = %+v, want 3 emitted, 3 forwarded, 3 returned", pt)
	}
}

// TestDigestDedupe keeps cycling within one wave: the initiator re-launches
// every cycle, but the digest window suppresses duplicates until
// ReprobeEvery reopens it.
func TestDigestDedupe(t *testing.T) {
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 1, ReprobeEvery: 1 << 30, MaxHops: 64})
	r.b.Attempts, r.c.Attempts = 1, 1
	registerBlocked(d, r.fab, r.a, 0)

	cycleN(d, 10)
	if pt := d.ProbeTotals(); pt.Emitted != 1 {
		t.Fatalf("emitted %d probes in one dedupe wave, want 1", pt.Emitted)
	}

	// A short reprobe window re-opens the wave and re-probes the edge.
	d2 := New(r.fab, Config{InitDelay: 1, ReprobeEvery: 4, MaxHops: 64})
	registerBlocked(d2, r.fab, r.a, 0)
	cycleN(d2, 10)
	if pt := d2.ProbeTotals(); pt.Emitted < 2 {
		t.Fatalf("emitted %d probes across reprobe windows, want >= 2", pt.Emitted)
	}
}

// TestStealIdleYieldsToData verifies the transport models: with StealIdle a
// data transmission on the link a probe needs next holds the probe back one
// cycle, while the dedicated control VC proceeds. Two probe moves cross a
// link: an emission from a blocked header, and a step along a worm's body.
func TestStealIdleYieldsToData(t *testing.T) {
	for _, tc := range []struct {
		transport Transport
		want      int64
	}{
		{TransportStealIdle, 0},
		{TransportControlVC, 1},
	} {
		r := newRing(t)
		d := New(r.fab, Config{InitDelay: 1, Transport: tc.transport, MaxHops: 64})
		r.b.Attempts, r.c.Attempts = 1, 1
		registerBlocked(d, r.fab, r.a, 0)

		d.EndCycle(1, []router.LinkID{r.l12}) // data flit crossed A's requested output
		if pt := d.ProbeTotals(); pt.Emitted != tc.want {
			t.Fatalf("%v: emitted %d with the link busy, want %d", tc.transport, pt.Emitted, tc.want)
		}

		// The gated edge is retried as soon as the link idles.
		d.EndCycle(2, nil)
		if pt := d.ProbeTotals(); pt.Emitted != 1 {
			t.Fatalf("%v: emitted %d after the link idled, want 1", tc.transport, pt.Emitted)
		}
	}

	for _, tc := range []struct {
		transport Transport
		want      int64 // probe flits after the cycle L23 carried data
	}{
		{TransportStealIdle, 1},
		{TransportControlVC, 2},
	} {
		w := newBodyWalk(t)
		d := New(w.fab, Config{InitDelay: 1, ReprobeEvery: 1 << 30, Transport: tc.transport, MaxHops: 64})
		registerBlocked(d, w.fab, w.a, 0)

		d.EndCycle(1, nil)                    // emit onto B's tail VC
		d.EndCycle(2, []router.LinkID{w.l23}) // data flit crossed B's next body link
		if pt := d.ProbeTotals(); pt.Flits != tc.want {
			t.Fatalf("%v: %d probe flits with the body link busy, want %d", tc.transport, pt.Flits, tc.want)
		}

		// The walk goes on once the link idles and closes the cycle.
		for now := int64(3); now <= 5; now++ {
			d.EndCycle(now, nil)
		}
		if pt := d.ProbeTotals(); pt.Returned != 1 || pt.Flits != 3 {
			t.Fatalf("%v: walk after the link idled: %+v, want 1 returned over 3 flits", tc.transport, pt)
		}
	}
}

// TestVictimOldest checks age-based victim selection: the probe visits B
// (gen 5) and C (gen 7); the oldest, B, is scheduled instead of the
// initiator A (gen 10).
func TestVictimOldest(t *testing.T) {
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 1, Victim: VictimOldest, MaxHops: 64})
	r.b.Attempts, r.c.Attempts = 1, 1
	registerBlocked(d, r.fab, r.a, 0)

	now := cycleN(d, 3)
	if pt := d.ProbeTotals(); pt.Returned != 1 {
		t.Fatalf("returned = %d, want 1", pt.Returned)
	}
	outsA := r.fab.Candidates(r.a, 1, nil)
	if d.RouteFailed(r.a, r.fab.LinkOfVC(r.a.HeadVC), outsA, false, now) {
		t.Fatal("initiator A marked under VictimOldest; the oldest visited message owns the mark")
	}
	outsB := r.fab.Candidates(r.b, 2, nil)
	if !d.RouteFailed(r.b, r.fab.LinkOfVC(r.b.HeadVC), outsB, false, now) {
		t.Fatal("oldest message B was not marked")
	}
}

// TestMaxHopsDropsProbe caps probes at one hop: the emission is allowed but
// the probe is discarded on arrival at the next header.
func TestMaxHopsDropsProbe(t *testing.T) {
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 1, MaxHops: 1})
	r.b.Attempts, r.c.Attempts = 1, 1
	registerBlocked(d, r.fab, r.a, 0)

	cycleN(d, 4)
	pt := d.ProbeTotals()
	if pt.Returned != 0 {
		t.Fatalf("probe returned despite a 1-hop cap (lifecycle %+v)", pt)
	}
	if pt.Dropped == 0 {
		t.Fatal("capped probe was never dropped")
	}
}

// TestRoutableHeaderStopsChase frees the channel C waits on: when a probe
// reaches a header that has a free feasible output it must stop, because
// that worm is not wait-blocked.
func TestRoutableHeaderStopsChase(t *testing.T) {
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 1, MaxHops: 64})
	r.b.Attempts, r.c.Attempts = 1, 1
	registerBlocked(d, r.fab, r.a, 0)

	// Break the cycle: release A's worm on L01 so C's requested output has
	// a free VC (C will route next cycle). The probe chasing B then C must
	// drop rather than manufacture a cycle.
	d.EndCycle(1, nil) // emit toward B
	r.fab.ReleaseWorm(r.a)
	r.a.Phase = router.PhaseDelivered
	d.EndCycle(2, nil) // forward at B's header toward C
	d.EndCycle(3, nil) // arrive at C: C has a free output now
	d.EndCycle(4, nil)
	pt := d.ProbeTotals()
	if pt.Returned != 0 {
		t.Fatalf("probe returned through a routable header (lifecycle %+v)", pt)
	}
	if pt.Dropped == 0 {
		t.Fatalf("probe was never dropped (lifecycle %+v)", pt)
	}
}

// TestStaleProbeDropped releases the worm a probe is sitting on: the probe
// must detect the ownership change and drop.
func TestStaleProbeDropped(t *testing.T) {
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 1, MaxHops: 64})
	r.b.Attempts, r.c.Attempts = 1, 1
	registerBlocked(d, r.fab, r.a, 0)

	d.EndCycle(1, nil) // probe now on B's VC
	if pt := d.ProbeTotals(); pt.InFlight != 1 {
		t.Fatalf("in flight = %d, want 1", pt.InFlight)
	}
	r.fab.ReleaseWorm(r.b)
	r.b.Phase = router.PhaseDelivered
	d.EndCycle(2, nil)
	pt := d.ProbeTotals()
	if pt.InFlight != 0 || pt.Dropped != 1 {
		t.Fatalf("stale probe not dropped: %+v", pt)
	}
}

// bodyWalkFixture is a 4-ring holding a wait-for cycle of three worms, one
// of them, B, two links long.
type bodyWalkFixture struct {
	fab *router.Fabric
	a   *router.Message
	l23 router.LinkID // node 2 -> node 3, B's head link
}

func newBodyWalk(t *testing.T) *bodyWalkFixture {
	t.Helper()
	topo := topology.New(4, 1)
	rcfg := router.DefaultConfig()
	rcfg.VCsPerLink = 1
	fab, err := router.NewFabric(topo, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	l01 := netLink(t, fab, 0, 1)
	l12 := netLink(t, fab, 1, 2)
	l23 := netLink(t, fab, 2, 3)
	l30 := netLink(t, fab, 3, 0)

	// A: header at node 1, wants L12. B: holds L12 and L23, header at node
	// 3, wants L30. C: holds L30, header at node 0, wants L01 (held by A).
	a := fab.NewMessage(0, 2, 1, 0)
	b := fab.NewMessage(1, 0, 2, 0)
	c := fab.NewMessage(3, 1, 1, 0)
	blockWorm(fab, a, l01)
	vc1 := fab.FreeVC(l12)
	fab.Allocate(b, router.NilVC, vc1)
	vc2 := fab.FreeVC(l23)
	fab.Allocate(b, vc1, vc2)
	b.HeadVC, b.Phase = vc2, router.PhaseNetwork
	fab.VCs[vc1].Flits = 1
	fab.VCs[vc2].Flits = 1
	fab.VCs[vc2].HasHeader = true
	fab.VCs[vc1].HasTail = true
	b.Attempts, b.BlockedSince = 1, 0
	blockWorm(fab, c, l30)
	return &bodyWalkFixture{fab: fab, a: a, l23: l23}
}

// TestBodyWalk verifies the probe walks a worm's body link by link, charging
// one flit per traversal.
func TestBodyWalk(t *testing.T) {
	w := newBodyWalk(t)
	d := New(w.fab, Config{InitDelay: 1, MaxHops: 64})
	registerBlocked(d, w.fab, w.a, 0)

	// Cycle 1: emit onto B's tail VC (flit on L12). Cycle 2: walk the body
	// to B's head VC (flit on L23). Cycle 3: forward at node 3 onto C
	// (flit on L30). Cycle 4: return at node 0 where L01 is held by A.
	cycleN(d, 4)
	pt := d.ProbeTotals()
	if pt.Returned != 1 {
		t.Fatalf("probe did not return around the 4-ring: %+v", pt)
	}
	if pt.Flits != 3 {
		t.Fatalf("probe flits = %d, want 3 (L12, L23 body walk, L30)", pt.Flits)
	}
}

// TestRouteSucceededClearsState ensures a message that routes after probes
// were launched neither marks nor initiates further waves.
func TestRouteSucceededClearsState(t *testing.T) {
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 1, MaxHops: 64})
	r.b.Attempts, r.c.Attempts = 1, 1
	registerBlocked(d, r.fab, r.a, 0)
	cycleN(d, 3) // probe returns, pendingMark[A] set

	d.RouteSucceeded(r.a, r.fab.LinkOfVC(r.a.HeadVC))
	outs := r.fab.Candidates(r.a, 1, nil)
	if d.RouteFailed(r.a, r.fab.LinkOfVC(r.a.HeadVC), outs, false, 10) {
		t.Fatal("mark survived RouteSucceeded")
	}

	emitted := d.ProbeTotals().Emitted
	d.EndCycle(10, nil)
	// A re-blocked with first=false above, so it initiates again — but only
	// because it genuinely re-registered; a fully routed message would not
	// appear. Just assert the detector stayed consistent.
	pt := d.ProbeTotals()
	if pt.Emitted < emitted {
		t.Fatalf("emitted went backwards: %d -> %d", emitted, pt.Emitted)
	}
}

// TestSelfDeadlockDetected covers a worm that wrapped all the way around a
// torus dimension and blocks on its own body: the whole 3-ring is occupied
// by one message whose header, back at its source node, wants the channel
// its own tail still holds. The seed fan-out must recognize the initiator's
// own worm on a feasible output as a cycle — a virtual return with zero
// hops, zero flits, and no probe ever in flight.
func TestSelfDeadlockDetected(t *testing.T) {
	topo := topology.New(3, 1)
	rcfg := router.DefaultConfig()
	rcfg.VCsPerLink = 1
	fab, err := router.NewFabric(topo, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	l01 := netLink(t, fab, 0, 1)
	l12 := netLink(t, fab, 1, 2)
	l20 := netLink(t, fab, 2, 0)

	m := fab.NewMessage(0, 1, 3, 10)
	var prev router.VCID = router.NilVC
	for _, l := range []router.LinkID{l01, l12, l20} {
		vc := fab.FreeVC(l)
		fab.Allocate(m, prev, vc)
		fab.VCs[vc].Flits = 1
		prev = vc
	}
	fab.VCOf(l01, 0).HasTail = true
	fab.VCs[prev].HasHeader = true
	m.HeadVC, m.Phase = prev, router.PhaseNetwork
	m.Attempts = 1
	m.BlockedSince = 0

	d := New(fab, Config{InitDelay: 1, MaxHops: 64})
	if registerBlocked(d, fab, m, 0) {
		t.Fatal("RouteFailed marked the worm before any probe ran")
	}
	now := cycleN(d, 2)

	pt := d.ProbeTotals()
	if pt.Returned != 1 || pt.Emitted != 0 || pt.Forwarded != 0 {
		t.Fatalf("probe totals = %+v, want exactly one virtual return and no spawns", pt)
	}
	if pt.Flits != 0 {
		t.Fatalf("probe flits = %d, want 0 (self-cycle found without leaving the router)", pt.Flits)
	}
	if pt.InFlight != 0 {
		t.Fatalf("probes in flight = %d, want 0", pt.InFlight)
	}
	outs := fab.Candidates(m, 0, nil)
	if !d.RouteFailed(m, fab.LinkOfVC(m.HeadVC), outs, false, now) {
		t.Fatal("self-deadlocked worm was not marked")
	}
}

// probingRing is the ring fixture with a detector that has launched its first
// wave: probes in flight, dedupe windows open, link stamps written at cycle
// now.
func probingRing(t *testing.T) (*ringFixture, *Detector, int64) {
	t.Helper()
	r := newRing(t)
	d := New(r.fab, Config{InitDelay: 2, Transport: TransportControlVC, MaxHops: 64})
	for _, m := range []*router.Message{r.a, r.b, r.c} {
		registerBlocked(d, r.fab, m, 0)
	}
	now := int64(0)
	for ; len(d.probes) == 0 && now < 16; now++ {
		d.EndCycle(now, nil)
	}
	if len(d.probes) == 0 {
		t.Fatal("the blocked ring launched no probe")
	}
	return r, d, now - 1
}

// TestSnapshotRoundTrip: Restore(Snapshot()) into a fresh detector over the
// same fabric reproduces the state, and the detectors then behave alike.
func TestSnapshotRoundTrip(t *testing.T) {
	r, d, now := probingRing(t)
	snapBytes := d.Snapshot(nil, snap.Exact)
	fresh := New(r.fab, Config{InitDelay: 2, Transport: TransportControlVC, MaxHops: 64})
	if err := fresh.Restore(snapBytes); err != nil {
		t.Fatal(err)
	}
	if again := fresh.Snapshot(nil, snap.Exact); !bytes.Equal(again, snapBytes) {
		t.Fatalf("snapshot of the restored detector differs from the bytes it was restored from")
	}
	for c := now + 1; c < now+12; c++ {
		d.EndCycle(c, nil)
		fresh.EndCycle(c, nil)
		canon := snap.Mode{Canonical: true, Now: c + 1}
		if got, want := fresh.Snapshot(nil, canon), d.Snapshot(nil, canon); !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: restored detector diverged from the original", c)
		}
		if fresh.ProbeTotals() != d.ProbeTotals() {
			t.Fatalf("cycle %d: probe totals %+v, original %+v", c, fresh.ProbeTotals(), d.ProbeTotals())
		}
	}
}

// TestSnapshotBytesDeterministic pins that a dedupe window's keys are written
// in sorted order: two detectors whose windows hold the same keys, inserted in
// opposite orders so that their tables are laid out differently, snapshot and
// encode to the same bytes, and repeated snapshots of one unchanged detector
// agree. Written in table order, the two would differ.
func TestSnapshotBytesDeterministic(t *testing.T) {
	_, d, now := probingRing(t)
	_, e, _ := probingRing(t)
	for k := 0; k < 64; k++ {
		d.inits[0].seen.add(edgeKey(router.LinkID(k%13), router.MsgID(k)))
		e.inits[0].seen.add(edgeKey(router.LinkID((63-k)%13), router.MsgID(63-k)))
	}
	if slices.Equal(d.inits[0].seen.slots, e.inits[0].seen.slots) {
		t.Fatal("insertion order did not change the table layout; the test compares nothing")
	}
	want := d.Snapshot(nil, snap.Exact)
	if got := e.Snapshot(nil, snap.Exact); !bytes.Equal(got, want) {
		t.Fatal("equal windows filled in different orders snapshot differently")
	}
	canon := snap.Mode{Canonical: true, Now: now}
	if got, want := e.Snapshot(nil, canon), d.Snapshot(nil, canon); !bytes.Equal(got, want) {
		t.Fatal("equal windows filled in different orders encode differently")
	}
	for i := 0; i < 20; i++ {
		if got := d.Snapshot(nil, snap.Exact); !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d of an unchanged detector differs from the first", i)
		}
	}
}

// TestRestoreRejectsForeignIdentifiers: identifiers outside the fabric and a
// truncated or overlong input are errors, not panics.
func TestRestoreRejectsForeignIdentifiers(t *testing.T) {
	_, d, _ := probingRing(t)
	good := d.Snapshot(nil, snap.Exact)
	for n := 0; n < len(good); n++ {
		if err := d.Restore(good[:n]); err == nil {
			t.Fatalf("Restore accepted the first %d of %d bytes", n, len(good))
		}
	}
	if err := d.Restore(append(bytes.Clone(good), 0)); err == nil {
		t.Fatal("Restore accepted a trailing byte")
	}
	// Byte 4 starts the first probe's initiator; 0x7f makes it message 127
	// (three are pooled).
	bad := bytes.Clone(good)
	bad[4] = 0x7f
	if err := d.Restore(bad); err == nil {
		t.Fatal("Restore accepted a probe of a message outside the pool")
	}
	if err := d.Restore(good); err != nil {
		t.Fatalf("the untouched snapshot no longer restores: %v", err)
	}
}

// snapParts is a detector snapshot split into the sections Restore checks the
// order of: everything before the pending marks, the pending marks, the dedupe
// windows, and the counters after them.
type snapParts struct {
	head    []byte
	pending []int32
	windows []snapWindow
	tail    []byte
}

type snapWindow struct {
	id        int32
	waveStart int64
	keys      []uint64
}

func splitSnapshot(t *testing.T, b []byte) snapParts {
	t.Helper()
	r := snap.NewReader(b)
	r.Bytes(int(r.U32()) * prSnapBytes)
	r.Bytes(int(r.U32()) * 4)
	p := snapParts{head: b[:r.Offset()]}
	for n := r.U32(); n > 0; n-- {
		p.pending = append(p.pending, r.I32())
	}
	for n := r.U32(); n > 0; n-- {
		w := snapWindow{id: r.I32(), waveStart: r.I64()}
		for k := r.U32(); k > 0; k-- {
			w.keys = append(w.keys, r.U64())
		}
		p.windows = append(p.windows, w)
	}
	p.tail = b[r.Offset():]
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return p
}

func (p snapParts) encode() []byte {
	b := bytes.Clone(p.head)
	b = snap.IDs(snap.Exact, b, p.pending)
	b = snap.U32(b, uint32(len(p.windows)))
	for _, w := range p.windows {
		b = snap.I32(b, w.id)
		b = snap.I64(b, w.waveStart)
		b = snap.U32(b, uint32(len(w.keys)))
		for _, k := range w.keys {
			b = snap.U64(b, k)
		}
	}
	return append(b, p.tail...)
}

// TestRestoreRejectsNonCanonical: Snapshot writes the pending marks and the
// dedupe windows in ascending message order, each window's keys ascending,
// and no window in its initial state. Bytes that break any of these rules
// would restore to a state that snapshots to different bytes, so Restore
// refuses each shape; the untouched snapshot still restores exactly.
func TestRestoreRejectsNonCanonical(t *testing.T) {
	r, d, _ := probingRing(t)
	for k := 0; k < 4; k++ {
		d.inits[r.a.ID].seen.add(edgeKey(router.LinkID(k), r.b.ID))
	}
	d.pendingMark[r.a.ID], d.pendingMark[r.c.ID] = true, true
	good := d.Snapshot(nil, snap.Exact)
	parts := splitSnapshot(t, good)
	if !bytes.Equal(parts.encode(), good) {
		t.Fatal("splitSnapshot does not round-trip")
	}
	if len(parts.pending) != 2 || len(parts.windows) < 2 || len(parts.windows[0].keys) < 2 {
		t.Fatalf("fixture has %d pending marks, %d windows, %d keys in the first: want 2, >= 2, >= 2",
			len(parts.pending), len(parts.windows), len(parts.windows[0].keys))
	}
	for _, tc := range []struct {
		name   string
		mutate func(p *snapParts)
	}{
		{"DuplicateKey", func(p *snapParts) {
			w := &p.windows[0]
			w.keys = slices.Insert(w.keys, 1, w.keys[0])
		}},
		{"UnsortedKeys", func(p *snapParts) {
			w := &p.windows[0]
			w.keys[0], w.keys[1] = w.keys[1], w.keys[0]
		}},
		{"WindowListedTwice", func(p *snapParts) {
			p.windows = slices.Insert(p.windows, 1, p.windows[0])
		}},
		{"WindowsOutOfOrder", func(p *snapParts) {
			p.windows[0], p.windows[1] = p.windows[1], p.windows[0]
		}},
		{"InitialWindow", func(p *snapParts) {
			p.windows[0].waveStart, p.windows[0].keys = -1, nil
		}},
		{"PendingMarkTwice", func(p *snapParts) {
			p.pending = slices.Insert(p.pending, 1, p.pending[0])
		}},
		{"PendingMarksOutOfOrder", func(p *snapParts) {
			p.pending[0], p.pending[1] = p.pending[1], p.pending[0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := splitSnapshot(t, good)
			tc.mutate(&p)
			bad := p.encode()
			if err := New(r.fab, Config{}).Restore(bad); err == nil {
				t.Fatal("Restore accepted an encoding Snapshot never writes")
			}
		})
	}
	fresh := New(r.fab, Config{InitDelay: 2, Transport: TransportControlVC, MaxHops: 64})
	if err := fresh.Restore(good); err != nil {
		t.Fatalf("the untouched snapshot no longer restores: %v", err)
	}
	if again := fresh.Snapshot(nil, snap.Exact); !bytes.Equal(again, good) {
		t.Fatal("the untouched snapshot re-encodes differently")
	}
}
