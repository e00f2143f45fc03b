package detect_test

// Scenario coverage for the PromoteWaiting policy beyond the ring figures:
// the selective variant must promote ONLY the input channels whose blocked
// header is actually waiting on the output channel whose I flag was reset,
// while the paper's simple policy promotes every P input of the router.
// A 1-D ring cannot distinguish the two (each router has one network
// input), so the scenario uses a 4-ary 2-cube router with an X input
// waiting on the X+ output and a Y input waiting on the Y+ output.

import (
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/router"
	"wormnet/internal/topology"
)

// promoteBench drives an NDM instance over a 4-ary 2-cube the way the
// engine would, with hand-placed worms.
type promoteBench struct {
	t   *testing.T
	f   *router.Fabric
	ndm *detect.NDM
	now int64
	att map[router.MsgID]int
}

func newPromoteBench(t *testing.T, policy detect.PromotionPolicy) *promoteBench {
	t.Helper()
	f, err := router.NewFabric(topology.New(4, 2),
		router.Config{VCsPerLink: 1, BufFlits: 4, InjPorts: 1, DelPorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &promoteBench{
		t:   t,
		f:   f,
		ndm: detect.NewNDMOpt(f, 1, 16, policy),
		att: map[router.MsgID]int{},
	}
}

// place puts a blocked worm with an explicit destination on channel l.
func (b *promoteBench) place(l router.LinkID, dst int) *router.Message {
	b.t.Helper()
	m := b.f.NewMessage(int(b.f.Links[l].Src), dst, 8, b.now)
	m.Phase = router.PhaseNetwork
	vc := b.f.Links[l].FirstVC
	b.f.Allocate(m, router.NilVC, vc)
	m.HeadVC = vc
	b.f.VCs[vc].Flits = 8
	b.f.VCs[vc].HasHeader = true
	b.f.VCs[vc].HasTail = true
	m.Injected = 8
	return m
}

// drain removes a worm (recovery absorbed it) and raises the flow-control
// event, exactly as recovery.Engine does through its VCFreed hook.
func (b *promoteBench) drain(m *router.Message) {
	vc := m.HeadVC
	l := b.f.LinkOfVC(vc)
	b.f.VCs[vc].Flits = 0
	b.f.ReleaseEmptyVC(vc)
	m.HeadVC = router.NilVC
	m.TailVC = router.NilVC
	b.ndm.VCFreed(l)
	delete(b.att, m.ID)
}

// cycle advances the clock: tx channels transmitted, then the listed
// messages fail a routing attempt requesting their single candidate output.
func (b *promoteBench) cycle(tx []router.LinkID, fails ...*router.Message) {
	b.ndm.EndCycle(b.now, tx)
	for _, m := range fails {
		in := b.f.LinkOfVC(m.HeadVC)
		node := b.f.RouterOf(in)
		outs := b.f.Candidates(m, node, nil)
		first := b.att[m.ID] == 0
		b.att[m.ID]++
		m.Attempts++
		b.ndm.RouteFailed(m, in, outs, first, b.now)
	}
	b.now++
}

// runPromotionScenario builds the two-input configuration, lets a stale I
// flag form on the X+ output, resets it with a new worm's first flit, and
// returns the G/P state of the two input channels at that moment plus the
// bench for further driving.
func runPromotionScenario(t *testing.T, policy detect.PromotionPolicy) (b *promoteBench, inX, inY router.LinkID, mx *router.Message) {
	b = newPromoteBench(t, policy)
	tp := b.f.Topo
	xPlus, yPlus := topology.Direction(0), topology.Direction(2)
	r := tp.ID([]int{1, 1})
	inX = b.f.NetLink(tp.ID([]int{0, 1}), xPlus) // (0,1) -> (1,1)
	inY = b.f.NetLink(tp.ID([]int{1, 0}), yPlus) // (1,0) -> (1,1)
	outX := b.f.NetLink(r, xPlus)                // (1,1) -> (2,1)
	outY := b.f.NetLink(r, yPlus)                // (1,1) -> (1,2)

	// Both outputs are held by blocked worms, so their inactivity counters
	// run and the I flags set before the waiting messages first attempt.
	ox := b.place(outX, tp.ID([]int{3, 1}))
	b.place(outY, tp.ID([]int{1, 3}))
	for i := 0; i < 3; i++ {
		b.cycle(nil)
	}
	if !b.ndm.IFlagSet(outX) || !b.ndm.IFlagSet(outY) {
		t.Fatal("setup: I flags not set on the held outputs")
	}

	// MX waits on outX only (one X+ hop to its destination), MY on outY
	// only. Both first-attempt against already-inactive outputs: P.
	mx = b.place(inX, tp.ID([]int{2, 1}))
	my := b.place(inY, tp.ID([]int{1, 2}))
	b.cycle(nil, mx, my)
	if b.ndm.GPIsGenerate(inX) || b.ndm.GPIsGenerate(inY) {
		t.Fatal("setup: inputs should hold P after blocking on inactive outputs")
	}

	// Recovery absorbs the worm holding outX; the channel frees without a
	// transmission, so its I flag goes stale — the Figure 5 situation.
	b.drain(ox)
	b.cycle(nil, mx, my)
	if !b.ndm.IFlagSet(outX) {
		t.Fatal("setup: I flag of the drained output should stay set")
	}

	// A new worm acquires outX and its first flit crosses it, resetting the
	// stale I flag and triggering promotion in router (1,1).
	b.place(outX, tp.ID([]int{3, 1}))
	b.cycle([]router.LinkID{outX}, mx, my)
	return b, inX, inY, mx
}

// TestPromoteWaitingSelectivity: on the I-flag reset, the selective policy
// promotes the input actually waiting on that output and leaves the other
// input at P; a recovery-driven VCFreed afterwards demotes the promoted
// input again.
func TestPromoteWaitingSelectivity(t *testing.T) {
	b, inX, inY, mx := runPromotionScenario(t, detect.PromoteWaiting)
	if !b.ndm.GPIsGenerate(inX) {
		t.Error("input waiting on the reset output should be promoted to G")
	}
	if b.ndm.GPIsGenerate(inY) {
		t.Error("input waiting on a different output should stay at P")
	}
	// Recovery absorbs MX: the flow-control event on its input channel must
	// return the flag to P (interleaving promotion with recovery events).
	b.drain(mx)
	if b.ndm.GPIsGenerate(inX) {
		t.Error("VCFreed after promotion should demote the input back to P")
	}
}

// TestPromoteAllIsUnselective: the paper's simple policy promotes every P
// input of the router on the same event, including the one whose header is
// not waiting on the reset output — the behavioral difference the selective
// ablation exists to measure.
func TestPromoteAllIsUnselective(t *testing.T) {
	b, inX, inY, _ := runPromotionScenario(t, detect.PromoteAll)
	if !b.ndm.GPIsGenerate(inX) {
		t.Error("PromoteAll should promote the waiting input")
	}
	if !b.ndm.GPIsGenerate(inY) {
		t.Error("PromoteAll should promote the non-waiting input too")
	}
}
