package detect_test

// Scenario reconstruction of Figures 2 through 5 of the paper, driven
// against the real detection hardware. The physical setting is a ring of
// unidirectional channels c0..c7 (an 8-ary 1-cube with one virtual channel
// per physical channel, so one message fills a channel); the harness plays
// the engine's role, deciding which channels transmit each cycle and which
// blocked messages attempt to route where.

import (
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/router"
	"wormnet/internal/topology"
)

// bench drives a Detector the way the simulation engine would.
type bench struct {
	t        *testing.T
	f        *router.Fabric
	det      detect.Detector
	now      int64
	attempts map[router.MsgID]int
	marks    map[string]bool // marked message names
	names    map[router.MsgID]string
}

func newBench(t *testing.T, mk func(*router.Fabric) detect.Detector) *bench {
	t.Helper()
	cfg := router.Config{VCsPerLink: 1, BufFlits: 4, InjPorts: 1, DelPorts: 1}
	f, err := router.NewFabric(topology.New(8, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{
		t:        t,
		f:        f,
		det:      mk(f),
		attempts: map[router.MsgID]int{},
		marks:    map[string]bool{},
		names:    map[router.MsgID]string{},
	}
}

// c returns the ring channel from node i to node i+1.
func (b *bench) c(i int) router.LinkID { return b.f.NetLink(i, 0) }

// place puts a message occupying the single VC of channel l, with its
// header buffered and waiting (the state after the worm advanced into l and
// stalled there). The message's destination is three hops further along the
// ring, so its minimal candidates from the header node are the next ring
// channel (relevant only to the selective promotion policy, which inspects
// real routing candidates).
func (b *bench) place(name string, l router.LinkID, flits int) *router.Message {
	b.t.Helper()
	m := b.f.NewMessage(int(b.f.Links[l].Src), (int(b.f.Links[l].Dst)+3)%8, flits, b.now)
	m.Phase = router.PhaseNetwork
	vc := b.f.Links[l].FirstVC
	b.f.Allocate(m, router.NilVC, vc)
	m.HeadVC = vc
	b.f.VCs[vc].Flits = int32(flits)
	b.f.VCs[vc].HasHeader = true
	b.f.VCs[vc].HasTail = true
	m.Injected = int32(flits)
	b.names[m.ID] = name
	return m
}

// leave removes a message from its channel (its tail passed or it was
// absorbed), raising the flow-control event.
func (b *bench) leave(m *router.Message) {
	vc := m.HeadVC
	l := b.f.LinkOfVC(vc)
	b.f.VCs[vc].Flits = 0
	b.f.ReleaseEmptyVC(vc)
	m.HeadVC = router.NilVC
	m.TailVC = router.NilVC
	b.det.VCFreed(l)
	delete(b.attempts, m.ID)
}

// attempt describes one blocked message's routing attempt this cycle.
type attempt struct {
	m    *router.Message
	in   router.LinkID
	outs []router.LinkID
}

// cycle advances one clock: channels in tx transmitted a flit, then the
// detector hardware updates, then the given routing attempts fail (their
// outputs are all busy by construction). Marked messages are recorded.
func (b *bench) cycle(tx []router.LinkID, atts ...attempt) {
	b.det.EndCycle(b.now, tx)
	for _, a := range atts {
		first := b.attempts[a.m.ID] == 0
		b.attempts[a.m.ID]++
		a.m.Attempts++
		if b.det.RouteFailed(a.m, a.in, a.outs, first, b.now) {
			b.marks[b.names[a.m.ID]] = true
		}
	}
	b.now++
}

func (b *bench) assertMarks(want ...string) {
	b.t.Helper()
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[w] = true
	}
	for name := range b.marks {
		if !wantSet[name] {
			b.t.Errorf("message %s was marked as deadlocked but should not be", name)
		}
	}
	for name := range wantSet {
		if !b.marks[name] {
			b.t.Errorf("message %s should have been marked as deadlocked", name)
		}
	}
}

// TestFigure2NDM: messages B, C and D are blocked behind the advancing
// message A. The paper's mechanism must detect no deadlock: B observes
// activity (G but no DT on A's channel), while C and D arrive behind
// already-blocked messages and stay at P.
func TestFigure2NDM(t *testing.T) {
	b := newBench(t, func(f *router.Fabric) detect.Detector {
		return detect.NewNDM(f, 16)
	})
	ndm := b.det.(*detect.NDM)

	_ = b.place("A", b.c(3), 64) // advancing across c3
	mB := b.place("B", b.c(2), 16)
	mC := b.place("C", b.c(1), 16)
	mD := b.place("D", b.c(0), 16)

	// B blocks first; C arrives behind the already-blocked B a few cycles
	// later, and D behind C (staggered arrivals, as in the figure — the
	// paper notes that truly simultaneous blocking is the one case where
	// several messages may detect).
	attB := attempt{mB, b.c(2), []router.LinkID{b.c(3)}}
	attC := attempt{mC, b.c(1), []router.LinkID{b.c(2)}}
	attD := attempt{mD, b.c(0), []router.LinkID{b.c(1)}}
	for i := 0; i < 100; i++ {
		atts := []attempt{attB}
		if i >= 3 {
			atts = append(atts, attC)
		}
		if i >= 6 {
			atts = append(atts, attD)
		}
		b.cycle([]router.LinkID{b.c(3)}, atts...) // A transmits every cycle
	}
	b.assertMarks() // nothing

	// B saw activity on its requested channel: Generate.
	if !ndm.GPIsGenerate(b.c(2)) {
		t.Error("B's input channel should hold G")
	}
	// C and D arrived behind blocked messages: Propagate.
	if ndm.GPIsGenerate(b.c(1)) {
		t.Error("C's input channel should hold P")
	}
	if ndm.GPIsGenerate(b.c(0)) {
		t.Error("D's input channel should hold P")
	}
	// A's channel is active: I clear; the blocked channels are inactive.
	if ndm.IFlagSet(b.c(3)) {
		t.Error("I flag set on the advancing channel")
	}
	for _, ch := range []int{0, 1, 2} {
		if !ndm.IFlagSet(b.c(ch)) {
			t.Errorf("I flag clear on blocked channel c%d", ch)
		}
	}
}

// TestFigure2PDM: in the same configuration the previous mechanism falsely
// detects C and D as deadlocked once the threshold expires (the drawback
// the paper illustrates with Figure 2), while B is saved by A's activity.
func TestFigure2PDM(t *testing.T) {
	b := newBench(t, func(f *router.Fabric) detect.Detector {
		return detect.NewPDM(f, 16)
	})
	_ = b.place("A", b.c(3), 64)
	mB := b.place("B", b.c(2), 16)
	mC := b.place("C", b.c(1), 16)
	mD := b.place("D", b.c(0), 16)

	attB := attempt{mB, b.c(2), []router.LinkID{b.c(3)}}
	attC := attempt{mC, b.c(1), []router.LinkID{b.c(2)}}
	attD := attempt{mD, b.c(0), []router.LinkID{b.c(1)}}
	for i := 0; i < 100; i++ {
		atts := []attempt{attB}
		if i >= 3 {
			atts = append(atts, attC)
		}
		if i >= 6 {
			atts = append(atts, attD)
		}
		b.cycle([]router.LinkID{b.c(3)}, atts...)
	}
	b.assertMarks("C", "D")
}

// figure3 builds the Figure 3 state on top of Figure 2: A drains away, E
// takes over A's channel and then blocks requesting D's channel, closing a
// true deadlock B -> E -> D -> C -> B.
func figure3(t *testing.T, b *bench) (mB, mC, mD, mE *router.Message) {
	mA := b.place("A", b.c(3), 64)
	mB = b.place("B", b.c(2), 16)
	mC = b.place("C", b.c(1), 16)
	mD = b.place("D", b.c(0), 16)

	attB := attempt{mB, b.c(2), []router.LinkID{b.c(3)}}
	attC := attempt{mC, b.c(1), []router.LinkID{b.c(2)}}
	attD := attempt{mD, b.c(0), []router.LinkID{b.c(1)}}

	// Figure 2 regime: A advancing, B/C/D blocking in staggered order.
	for i := 0; i < 30; i++ {
		atts := []attempt{attB}
		if i >= 3 {
			atts = append(atts, attC)
		}
		if i >= 6 {
			atts = append(atts, attD)
		}
		b.cycle([]router.LinkID{b.c(3)}, atts...)
	}
	// A's tail passes; the channel frees.
	b.cycle([]router.LinkID{b.c(3)}, attB, attC, attD)
	b.leave(mA)
	// E's worm advances into c3 over the next two cycles (transmissions
	// across c3), then E's header blocks requesting D's channel c0.
	mE = b.place("E", b.c(3), 16)
	b.cycle([]router.LinkID{b.c(3)}, attC, attD) // E flits arriving; B also waits
	b.cycle([]router.LinkID{b.c(3)}, attB, attC, attD)
	return mB, mC, mD, mE
}

// TestFigure3And4NDM: once E blocks, the deadlock must be detected by B and
// only B — the message that had observed the (then-advancing) root
// position, exactly as in Figure 4.
func TestFigure3And4NDM(t *testing.T) {
	b := newBench(t, func(f *router.Fabric) detect.Detector {
		return detect.NewNDM(f, 16)
	})
	mB, mC, mD, mE := figure3(t, b)
	attB := attempt{mB, b.c(2), []router.LinkID{b.c(3)}}
	attC := attempt{mC, b.c(1), []router.LinkID{b.c(2)}}
	attD := attempt{mD, b.c(0), []router.LinkID{b.c(1)}}
	attE := attempt{mE, b.c(3), []router.LinkID{b.c(0)}}

	// True deadlock: nobody transmits. Run past the threshold.
	for i := 0; i < 40; i++ {
		b.cycle(nil, attB, attC, attD, attE)
	}
	b.assertMarks("B")
}

// TestFigure5NDM: after B recovers, F occupies B's old channel and a second
// deadlock forms. The transmission of F's first flit across c2 resets the
// stale I flag and promotes C to G, so C (and only C) detects the new
// deadlock.
func TestFigure5NDM(t *testing.T) {
	b := newBench(t, func(f *router.Fabric) detect.Detector {
		return detect.NewNDM(f, 16)
	})
	mB, mC, mD, mE := figure3(t, b)
	ndm := b.det.(*detect.NDM)
	attC := attempt{mC, b.c(1), []router.LinkID{b.c(2)}}
	attD := attempt{mD, b.c(0), []router.LinkID{b.c(1)}}
	attE := attempt{mE, b.c(3), []router.LinkID{b.c(0)}}

	// Reach the Figure 4 state: B detects.
	attB := attempt{mB, b.c(2), []router.LinkID{b.c(3)}}
	for i := 0; i < 40; i++ {
		b.cycle(nil, attB, attC, attD, attE)
	}
	b.assertMarks("B")
	b.marks = map[string]bool{}

	// B is absorbed by the recovery mechanism; its channel frees. The I
	// flag of c2 stays set (stale) because no flit was transmitted.
	b.leave(mB)
	if !ndm.IFlagSet(b.c(2)) {
		t.Fatal("I flag of c2 should remain set after B drains without transmission")
	}
	b.cycle(nil, attC, attD, attE)

	// F acquires c2; its first flit transmission resets I(c2), which must
	// promote C from P to G.
	if ndm.GPIsGenerate(b.c(1)) {
		t.Fatal("C should still be P before F arrives")
	}
	mF := b.place("F", b.c(2), 16)
	b.cycle([]router.LinkID{b.c(2)}, attC, attD, attE)
	if !ndm.GPIsGenerate(b.c(1)) {
		t.Fatal("F's transmission across c2 should promote C to G")
	}

	// F blocks requesting E's channel: second deadlock C->F->E->D->C.
	attF := attempt{mF, b.c(2), []router.LinkID{b.c(3)}}
	for i := 0; i < 40; i++ {
		b.cycle(nil, attC, attD, attE, attF)
	}
	b.assertMarks("C")
}

// TestFigure5Selective: the selective promotion policy also detects the
// Figure 5 deadlock (C is genuinely waiting on the channel whose I flag was
// reset), demonstrating the ablation preserves correctness in this case.
func TestFigure5Selective(t *testing.T) {
	b := newBench(t, func(f *router.Fabric) detect.Detector {
		return detect.NewNDMOpt(f, 1, 16, detect.PromoteWaiting)
	})
	mB, mC, mD, mE := figure3(t, b)
	attB := attempt{mB, b.c(2), []router.LinkID{b.c(3)}}
	attC := attempt{mC, b.c(1), []router.LinkID{b.c(2)}}
	attD := attempt{mD, b.c(0), []router.LinkID{b.c(1)}}
	attE := attempt{mE, b.c(3), []router.LinkID{b.c(0)}}
	for i := 0; i < 40; i++ {
		b.cycle(nil, attB, attC, attD, attE)
	}
	b.assertMarks("B")
	b.marks = map[string]bool{}
	b.leave(mB)
	b.cycle(nil, attC, attD, attE)
	mF := b.place("F", b.c(2), 16)
	b.cycle([]router.LinkID{b.c(2)}, attC, attD, attE)
	attF := attempt{mF, b.c(2), []router.LinkID{b.c(3)}}
	for i := 0; i < 40; i++ {
		b.cycle(nil, attC, attD, attE, attF)
	}
	b.assertMarks("C")
}
