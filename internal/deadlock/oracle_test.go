package deadlock

import (
	"slices"
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
	// it is a real deadlock involving all 16. Each newcomer's first failed
	// attempt is reported, as the engine reports it.
	for i := 0; i < 8; i++ {
		o.MessageChanged(blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8).ID)
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
	// change moves no router stamp; here the oracle is made to rebuild.
	ms[0].Phase = router.PhaseRecovering
	o.Invalidate()
	if got := o.Deadlocked(); len(got) != 0 {
		t.Fatalf("deadlock persists after victim marked: %v", got)
	}
}

// TestCachedResultAndGenTracking: the kept set is returned while no router
// stamp moves, a VC release is repaired without Invalidate, and CrossCheck
// accepts a correctly maintained graph.
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
		t.Fatalf("CrossCheck on a fresh graph: %v", err)
	}
	// Unchanged fabric: repeated evaluations answer from the kept set.
	if len(o.Deadlocked()) != 8 || len(o.Deadlocked()) != 8 {
		t.Fatal("cached evaluation diverged")
	}
	// Releasing one worm bumps its routers' stamps; the next evaluation
	// must repair the graph without an explicit Invalidate.
	f.ReleaseWorm(ms[0])
	ms[0].Phase = router.PhaseAborted
	if got := o.Deadlocked(); len(got) != 0 {
		t.Fatalf("a stale set survived a VC release: %v", got)
	}
	if err := o.CrossCheck(); err != nil {
		t.Fatalf("CrossCheck after release: %v", err)
	}
}

// TestReusedIDIsNoSeed: a seed's worm leaves unreported, its ID goes to a new
// worm whose header enters the VC the seed waited in, and nothing reports
// the newcomer, which has not failed a routing attempt there. It is no seed,
// so the ring it closes is not deadlocked.
func TestReusedIDIsNoSeed(t *testing.T) {
	f := ringFabric(t)
	o := New(f)
	var ms []*router.Message
	for i := 0; i < 8; i++ {
		ms = append(ms, blockAt(t, f, f.NetLink(i, 0), (i+1+3)%8))
	}
	if len(o.Deadlocked()) != 8 {
		t.Fatal("setup: no deadlock")
	}
	f.ReleaseWorm(ms[0])
	f.FreeMessage(ms[0])
	m := blockAt(t, f, f.NetLink(0, 0), 4)
	m.Attempts = 0
	if m.ID != ms[0].ID || m.HeadVC != ms[0].HeadVC {
		t.Fatalf("setup: the newcomer is message %d in VC %d, want %d in %d", m.ID, m.HeadVC, ms[0].ID, ms[0].HeadVC)
	}
	if got := o.Deadlocked(); len(got) != 0 {
		t.Fatalf("the newcomer was kept as its ID's seed: %v", got)
	}
	if err := o.CrossCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossCheckDetectsMissedInvalidate: a phase mutation hidden from the
// router stamps and not reported through MessageChanged leaves the kept set
// stale, and CrossCheck reports it.
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
		t.Fatal("CrossCheck missed a stale kept set")
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

// refKernel is the oracle's fixpoint kernel as it stood before the flat
// wait-for graph, kept verbatim as FuzzOracle's reference: it seeds from
// every live message in the pool and re-derives every survivor's candidate
// VCs through the routing function in every round, until a round removes
// nothing. It calls the same candidate function as the kernel under test, and
// so reads the same Fabric.RouteMask: it pins the seed rule, the graph build,
// the peel and the output order, not the routing relation. It is therefore
// not the independent brute-force reference of ROADMAP item 9.
type refKernel struct {
	f       *router.Fabric
	cands   CandidateFunc
	epoch   uint64
	stamp   []uint64
	blocked []router.MsgID
	vcBuf   []router.VCID
}

// refDeadlocked runs the reference kernel once, from scratch.
func refDeadlocked(f *router.Fabric, cands CandidateFunc) []router.MsgID {
	o := &refKernel{f: f, cands: cands}
	o.recompute()
	return o.blocked
}

func (o *refKernel) recompute() {
	f := o.f
	o.epoch++
	// Seed: every blocked message (header waiting, at least one failed
	// routing attempt, not being drained by recovery).
	o.blocked = o.blocked[:0]
	f.LiveMessages(func(m *router.Message) {
		if m.Phase == router.PhaseNetwork && m.Attempts > 0 &&
			m.HeadVC != router.NilVC && f.HeaderBlocked(m.HeadVC) {
			o.blocked = append(o.blocked, m.ID)
			o.add(m.ID)
		}
	})
	if len(o.blocked) == 0 {
		return
	}

	// Greatest fixpoint: repeatedly remove messages with an escape.
	for changed := true; changed; {
		changed = false
		kept := o.blocked[:0]
		for _, id := range o.blocked {
			if o.canEscape(f.Msg(id)) {
				o.remove(id)
				changed = true
				continue
			}
			kept = append(kept, id)
		}
		o.blocked = kept
	}
}

func (o *refKernel) add(id router.MsgID) {
	if int(id) >= len(o.stamp) {
		grown := make([]uint64, 2*int(id)+8)
		copy(grown, o.stamp)
		o.stamp = grown
	}
	o.stamp[id] = o.epoch
}

func (o *refKernel) remove(id router.MsgID) { o.stamp[id] = 0 }

func (o *refKernel) inSet(id router.MsgID) bool {
	return int(id) < len(o.stamp) && o.stamp[id] == o.epoch
}

func (o *refKernel) canEscape(m *router.Message) bool {
	f := o.f
	node := f.RouterOf(f.LinkOfVC(m.HeadVC))
	o.vcBuf = o.cands(m, node, o.vcBuf[:0])
	for _, vc := range o.vcBuf {
		occ := f.VCs[vc].Occupant
		if occ == router.NilMsg || !o.inSet(occ) {
			return true
		}
	}
	return false
}

// ringDeadlockProgram is a FuzzOracle program that fills both VCs of every
// X+ channel of row 0 — the 4-node ring, or with torus set the 3x3 torus —
// with a blocked worm one hop from its destination, so that X+ is its only
// minimal direction: all 2k worms are deadlocked.
func ringDeadlockProgram(torus bool) []byte {
	prog, k, degree := []byte{0}, 4, 2
	if torus {
		prog, k, degree = []byte{1}, 3, 4
	}
	for i := 0; i < k; i++ {
		for v := 0; v < 2; v++ {
			prog = append(prog, 0, byte(i*degree), byte((i+2)%k), 1)
		}
	}
	return prog
}

// FuzzOracle runs an op program — create, route, move and release worms,
// fail a routing attempt, hand a worm to recovery, consume a header — on a
// small two-VC fabric (the 4-node ring or the 3x3 torus, by the first byte),
// and after every op asserts that two oracles return exactly the set the
// reference kernel returns, in the same order, and that Contains agrees with
// it for every pooled message: one invalidated before every query, so it
// rebuilds from scratch, and one never invalidated, which repairs its graph
// from the router stamps and the message changes the fixture reports through
// MessageChanged. A third oracle, never invalidated either, is queried only
// after a failed attempt, a hand-over to recovery and the last op, as an
// engine that consults the oracle only at marks does, so many changes
// accumulate between its evaluations. The fixture reports what the engine reports — a first
// failed attempt, a worm handed to recovery — and the two changes the engine
// never makes, which no stamp sees: a worm handed back from recovery and a
// header consumed where it stands. A worm that enters or routes or whose
// header moves on is reported to nobody, as in the engine, since it changes
// VCs at its header's router. It also asserts
// that the fixture kept the fabric's invariants (the head-VC rule the oracle
// seeds on among them). Released messages go back to the pool, so IDs are
// reused out of creation order, a new worm often in the VC its ID's last
// holder waited in.
func FuzzOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 0, 2, 3, 1, 2, 0, 2, 1})
	f.Add([]byte{1, 0, 0, 4, 1, 0, 1, 8, 0, 1, 0, 9, 2, 1, 2, 6, 3, 1, 4, 0, 0, 5, 5, 1})
	for _, torus := range []bool{false, true} {
		f.Add(ringDeadlockProgram(torus))
		// Then: a release, a new blocked worm, a drained worm, a routed
		// header, a worm extended out of the cycle, a consumed header.
		f.Add(append(ringDeadlockProgram(torus), 4, 3, 0, 7, 2, 1, 5, 0, 3, 1, 1, 4, 5, 7, 2))
	}
	for _, torus := range []bool{false, true} {
		// Then: a failed attempt (a query of the sparse oracle), the first
		// worm leaves, and a new one takes its ID and its VC without failing
		// a routing attempt there.
		f.Add(append(ringDeadlockProgram(torus), 2, 0, 4, 0, 0, 0, 2, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runOracleProgram(t, data) })
}

// runOracleProgram is FuzzOracle's body; it returns the last set the oracle
// reported.
func runOracleProgram(t *testing.T, data []byte) []router.MsgID {
	if len(data) == 0 {
		return nil
	}
	topo := topology.New(4, 1)
	if data[0]&1 == 1 {
		topo = topology.New(3, 2)
	}
	fab, err := router.NewFabric(topo, router.Config{VCsPerLink: 2, BufFlits: 4, InjPorts: 1, DelPorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	o, inc, sparse := New(fab), New(fab), New(fab)
	report := func(m *router.Message) {
		inc.MessageChanged(m.ID)
		sparse.MessageChanged(m.ID)
	}
	var live []*router.Message
	var got []router.MsgID
	pos := 1
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	link := func() router.LinkID { return router.LinkID(next() % fab.NumLinks()) }
	pick := func() *router.Message {
		if len(live) == 0 {
			return nil
		}
		return live[next()%len(live)]
	}
	// route grants m's waiting header the first free VC on an output of its
	// router, from output start on, as a route success does: the allocation
	// moves the router's stamp, so nothing is reported.
	route := func(m *router.Message, start int) bool {
		node := fab.RouterOf(fab.LinkOfVC(m.HeadVC))
		outs := topo.Degree() + 1
		for i := range outs {
			out := fab.DelLink(node, 0)
			if d := (start + i) % outs; d < topo.Degree() {
				out = fab.NetLink(node, topology.Direction(d))
			}
			if vc := fab.FreeVC(out); vc != router.NilVC {
				fab.Allocate(m, m.HeadVC, vc)
				m.Attempts = 0
				return true
			}
		}
		return false
	}
	for pos < len(data) {
		// Op 6 does nothing, so programs in the committed corpus keep the
		// meaning of every other op byte.
		op := next() % 8
		switch op {
		case 0: // a worm enters: header on a free VC, then perhaps a failed attempt
			l, dst, blocked := link(), next()%topo.Nodes(), next()&1
			vc := fab.FreeVC(l)
			if vc == router.NilVC {
				break
			}
			m := fab.NewMessage(0, dst, 8, 0)
			fab.Allocate(m, router.NilVC, vc)
			m.Phase, m.HeadVC = router.PhaseNetwork, vc
			fab.VCs[vc].Flits, fab.VCs[vc].HasHeader = 1, true
			live = append(live, m)
			if blocked == 1 {
				m.Attempts = 1
				report(m)
			}
		case 1: // the header moves on, into the VC it is routed to
			m, start := pick(), next()
			if m == nil || m.HeadVC == router.NilVC || m.Phase != router.PhaseNetwork {
				break
			}
			if fab.VCs[m.HeadVC].Next == router.NilVC && !route(m, start) {
				break
			}
			vc := fab.VCs[m.HeadVC].Next
			fab.VCs[m.HeadVC].HasHeader = false
			m.HeadVC, m.Attempts = vc, 0
			fab.VCs[vc].Flits, fab.VCs[vc].HasHeader = 1, true
		case 2: // a failed routing attempt
			if m := pick(); m != nil {
				if m.Attempts++; m.Attempts == 1 {
					report(m)
				}
			}
		case 3: // the header routes: it is granted a VC and waits no more
			if m := pick(); m != nil && m.HeadVC != router.NilVC && m.Phase == router.PhaseNetwork &&
				fab.VCs[m.HeadVC].Next == router.NilVC {
				route(m, 0)
			}
		case 4: // the worm leaves and its ID returns to the pool
			if len(live) == 0 {
				break
			}
			i := next() % len(live)
			fab.ReleaseWorm(live[i])
			fab.FreeMessage(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case 5: // recovery takes the worm over, or hands it back
			if m := pick(); m != nil {
				if m.Phase == router.PhaseNetwork {
					m.Phase = router.PhaseRecovering
				} else {
					m.Phase = router.PhaseNetwork
				}
				report(m)
			}
		case 7: // the header is consumed where it stands
			if m := pick(); m != nil && m.HeadVC != router.NilVC {
				fab.VCs[m.HeadVC].HasHeader = false
				m.HeadVC = router.NilVC
				report(m)
			}
		}
		if err := fab.CheckInvariants(); err != nil {
			t.Fatalf("fixture broke the fabric: %v", err)
		}
		o.Invalidate()
		got = o.Deadlocked()
		want := refDeadlocked(fab, o.cands)
		checks := []struct {
			name string
			o    *Oracle
			got  []router.MsgID
		}{{"rebuilt", o, got}, {"incremental", inc, inc.Deadlocked()}}
		if op == 2 || op == 5 || pos >= len(data) {
			checks = append(checks, checks[1])
			checks[2].name, checks[2].o, checks[2].got = "sparse", sparse, sparse.Deadlocked()
		}
		for _, c := range checks {
			if !slices.Equal(c.got, want) {
				t.Fatalf("op ending at byte %d: %s oracle %v, reference %v", pos, c.name, c.got, want)
			}
			for id := router.MsgID(0); int(id) < fab.NumMessages(); id++ {
				if in := slices.Contains(want, id); c.o.Contains(id) != in {
					t.Fatalf("op ending at byte %d: %s Contains(%d) = %v, reference says %v", pos, c.name, id, !in, in)
				}
			}
		}
	}
	return got
}

// TestRingDeadlockProgram pins that FuzzOracle's seed program reaches the
// deadlock it is named for, so the corpus exercises a non-empty fixpoint.
func TestRingDeadlockProgram(t *testing.T) {
	for _, tc := range []struct {
		torus bool
		want  int
	}{{false, 8}, {true, 6}} {
		if got := runOracleProgram(t, ringDeadlockProgram(tc.torus)); len(got) != tc.want {
			t.Errorf("torus=%v: the program deadlocks %v, want all %d worms", tc.torus, got, tc.want)
		}
	}
}
