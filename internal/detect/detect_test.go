package detect_test

import (
	"bytes"
	"strings"
	"testing"

	"wormnet/internal/detect"
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

func fabric2D(t *testing.T) *router.Fabric {
	t.Helper()
	f, err := router.NewFabric(topology.New(4, 2), router.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// occupy places a message on the first free VC of link l with one buffered
// flit, marking it as a blocked header.
func occupy(t *testing.T, f *router.Fabric, l router.LinkID, dst int) *router.Message {
	t.Helper()
	m := f.NewMessage(int(f.Links[l].Src), dst, 16, 0)
	m.Phase = router.PhaseNetwork
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

// tick runs detector end-of-cycle with the given transmitted links.
func tick(d detect.Detector, now int64, f *router.Fabric, tx ...router.LinkID) {
	d.EndCycle(now, tx)
}

func TestNDMCounterThresholds(t *testing.T) {
	f := ringFabric(t)
	d := detect.NewNDM(f, 8)
	l := f.NetLink(0, 0)
	occupy(t, f, l, 4)

	// t1=1: I sets after counter exceeds 1, i.e. on the second idle cycle.
	tick(d, 0, f)
	if d.IFlagSet(l) {
		t.Fatal("I set after one idle cycle")
	}
	tick(d, 1, f)
	if !d.IFlagSet(l) {
		t.Fatal("I not set after two idle cycles")
	}
	if d.DTFlagSet(l) {
		t.Fatal("DT set before t2")
	}
	for now := int64(2); now <= 8; now++ {
		tick(d, now, f)
	}
	if !d.DTFlagSet(l) {
		t.Fatal("DT not set after t2 exceeded")
	}
	// A transmission resets everything.
	tick(d, 9, f, l)
	if d.IFlagSet(l) || d.DTFlagSet(l) {
		t.Fatal("flags not reset by transmission")
	}
}

func TestNDMEmptyChannelFreezesCounter(t *testing.T) {
	f := ringFabric(t)
	d := detect.NewNDM(f, 4)
	l := f.NetLink(0, 0)
	// Unoccupied channel must never raise flags.
	for now := int64(0); now < 20; now++ {
		tick(d, now, f)
	}
	if d.IFlagSet(l) || d.DTFlagSet(l) {
		t.Fatal("flags raised on empty channel")
	}
	// Occupied & idle raises them; draining the occupant without a
	// transmission must leave them set (stale, per Figure 6 semantics).
	m := occupy(t, f, l, 4)
	for now := int64(20); now < 30; now++ {
		tick(d, now, f)
	}
	if !d.DTFlagSet(l) {
		t.Fatal("DT not set")
	}
	vc := m.HeadVC
	f.VCs[vc].Flits = 0
	f.ReleaseEmptyVC(vc)
	tick(d, 30, f)
	if !d.IFlagSet(l) || !d.DTFlagSet(l) {
		t.Fatal("stale flags cleared without a transmission")
	}
}

func TestNDMFirstAttemptWithFreeInputVC(t *testing.T) {
	f := fabric2D(t) // 3 VCs per channel
	d := detect.NewNDM(f, 8)
	in := f.NetLink(0, 0) // arrives at node 1
	m := occupy(t, f, in, 3)
	out := f.NetLink(1, 0)
	// Input channel has free VCs: the message cannot close a cycle; P.
	if d.RouteFailed(m, in, []router.LinkID{out}, true, 0) {
		t.Fatal("marked on first attempt")
	}
	if d.GPIsGenerate(in) {
		t.Fatal("G set despite free input VCs")
	}
}

func TestNDMFirstAttemptSetsGOnActivity(t *testing.T) {
	f := ringFabric(t) // 1 VC per channel: occupying it fills the input
	d := detect.NewNDM(f, 8)
	in := f.NetLink(0, 0)
	out := f.NetLink(1, 0)
	m := occupy(t, f, in, 3)
	occupy(t, f, out, 4) // output busy but (so far) active
	if d.RouteFailed(m, in, []router.LinkID{out}, true, 0) {
		t.Fatal("marked on first attempt")
	}
	if !d.GPIsGenerate(in) {
		t.Fatal("G not set when requested channel shows activity")
	}
}

func TestNDMFirstAttemptSetsPWhenOutputsInactive(t *testing.T) {
	f := ringFabric(t)
	d := detect.NewNDM(f, 8)
	in := f.NetLink(0, 0)
	out := f.NetLink(1, 0)
	m := occupy(t, f, in, 3)
	occupy(t, f, out, 4)
	tick(d, 0, f)
	tick(d, 1, f) // I(out) sets
	if !d.IFlagSet(out) {
		t.Fatal("I not set")
	}
	if d.RouteFailed(m, in, []router.LinkID{out}, true, 2) {
		t.Fatal("marked on first attempt")
	}
	if d.GPIsGenerate(in) {
		t.Fatal("G set although every requested channel was already inactive")
	}
}

func TestNDMMarkRequiresAllDTAndG(t *testing.T) {
	f := ringFabric(t)
	d := detect.NewNDM(f, 4)
	in := f.NetLink(0, 0)
	out1, out2 := f.NetLink(1, 0), f.NetLink(1, 1)
	m := occupy(t, f, in, 3)
	occupy(t, f, out1, 4)
	occupy(t, f, out2, 4)
	outs := []router.LinkID{out1, out2}

	// First attempt while out1 is still fresh: G.
	if d.RouteFailed(m, in, outs, true, 0) {
		t.Fatal("marked on first attempt")
	}
	if !d.GPIsGenerate(in) {
		t.Fatal("expected G")
	}
	// Let DT rise on out1 only: keep out2 transmitting.
	for now := int64(0); now < 10; now++ {
		tick(d, now, f, out2)
		if d.RouteFailed(m, in, outs, false, now) {
			t.Fatalf("marked at cycle %d with an active output", now)
		}
	}
	// Now let out2 go idle past t2 as well: mark.
	marked := false
	for now := int64(10); now < 20 && !marked; now++ {
		tick(d, now, f)
		marked = d.RouteFailed(m, in, outs, false, now)
	}
	if !marked {
		t.Fatal("never marked despite all DT set and G")
	}

	// Same configuration with P must not mark.
	d2 := detect.NewNDM(f, 4)
	for now := int64(0); now < 10; now++ {
		tick(d2, now, f)
	}
	if !d2.DTFlagSet(out1) || !d2.DTFlagSet(out2) {
		t.Fatal("DT not set in control run")
	}
	if d2.RouteFailed(m, in, outs, false, 10) {
		t.Fatal("marked with G/P = P")
	}
}

func TestNDMRouteSuccessResetsG(t *testing.T) {
	f := ringFabric(t)
	d := detect.NewNDM(f, 8)
	in := f.NetLink(0, 0)
	out := f.NetLink(1, 0)
	m := occupy(t, f, in, 3)
	occupy(t, f, out, 4)
	d.RouteFailed(m, in, []router.LinkID{out}, true, 0)
	if !d.GPIsGenerate(in) {
		t.Fatal("setup failed")
	}
	d.RouteSucceeded(m, in)
	if d.GPIsGenerate(in) {
		t.Fatal("G survived successful routing")
	}
}

func TestNDMVCFreedResetsG(t *testing.T) {
	f := ringFabric(t)
	d := detect.NewNDM(f, 8)
	in := f.NetLink(0, 0)
	out := f.NetLink(1, 0)
	m := occupy(t, f, in, 3)
	occupy(t, f, out, 4)
	d.RouteFailed(m, in, []router.LinkID{out}, true, 0)
	d.VCFreed(in)
	if d.GPIsGenerate(in) {
		t.Fatal("G survived VC release")
	}
}

// TestNDMPromotionSelective: resetting an I flag promotes, under the
// selective policy, only the inputs whose blocked message actually requests
// that output.
func TestNDMPromotionSelective(t *testing.T) {
	f := ringFabric(t)
	d := detect.NewNDMOpt(f, 1, 8, detect.PromoteWaiting)
	// Router at node 1 has inputs c0 (0->1, X+) and the link 2->1 (X-).
	inPlus := f.NetLink(0, 0)  // carries mPlus heading further in X+
	inMinus := f.NetLink(2, 1) // carries mMinus heading further in X-
	outPlus := f.NetLink(1, 0)
	mPlus := occupy(t, f, inPlus, 3)   // dst 3: candidates from node 1 = {outPlus}
	mMinus := occupy(t, f, inMinus, 7) // dst 7: candidates from node 1 = {1->0}
	_, _ = mPlus, mMinus
	occupy(t, f, outPlus, 5) // a message blocking outPlus

	// Both inputs currently P. Let outPlus accumulate an I flag, then
	// transmit across it: the reset must promote only inPlus.
	tick(d, 0, f)
	tick(d, 1, f)
	if !d.IFlagSet(outPlus) {
		t.Fatal("I not set")
	}
	tick(d, 2, f, outPlus)
	if !d.GPIsGenerate(inPlus) {
		t.Fatal("selective promotion missed the waiting input")
	}
	if d.GPIsGenerate(inMinus) {
		t.Fatal("selective promotion hit an unrelated input")
	}

	// The simple policy promotes both.
	d2 := detect.NewNDMOpt(f, 1, 8, detect.PromoteAll)
	tick(d2, 0, f)
	tick(d2, 1, f)
	tick(d2, 2, f, outPlus)
	if !d2.GPIsGenerate(inPlus) || !d2.GPIsGenerate(inMinus) {
		t.Fatal("PromoteAll did not promote every input")
	}
}

// TestNDMSharedInputFlagMultiVC documents the shared-flag semantics of the
// real hardware on multi-VC input channels: the G/P flag is one bit per
// physical input channel, so once the latest arrival sets it to G, every
// blocked message that arrived through that channel becomes eligible to
// detect. (The paper's single-detection examples use one message per
// channel; with several VCs the paper accepts that "more than a single
// message will be labeled as deadlocked" in some configurations.)
func TestNDMSharedInputFlagMultiVC(t *testing.T) {
	f := fabric2D(t) // 3 VCs per channel
	d := detect.NewNDM(f, 4)
	in := f.NetLink(0, 0)
	out := f.NetLink(1, 0)
	// Fill the output so routing fails, keep it "active" at first.
	occupy(t, f, out, 4)
	occupy(t, f, out, 4)
	occupy(t, f, out, 4)

	// Three messages arrive on the same input channel in sequence.
	m1 := occupy(t, f, in, 3)
	if d.RouteFailed(m1, in, []router.LinkID{out}, true, 0) {
		t.Fatal("marked")
	}
	if d.GPIsGenerate(in) {
		t.Fatal("m1 left free VCs: flag must stay P")
	}
	m2 := occupy(t, f, in, 3)
	d.RouteFailed(m2, in, []router.LinkID{out}, true, 1)
	m3 := occupy(t, f, in, 3) // fills the channel: m3 is the latest arrival
	tick(d, 1, f, out)        // output transmits: I clear when m3 tests it
	if d.RouteFailed(m3, in, []router.LinkID{out}, true, 2) {
		t.Fatal("marked on first attempt")
	}
	if !d.GPIsGenerate(in) {
		t.Fatal("latest arrival saw activity: flag must be G")
	}
	// The output now stalls past t2: every waiting message on this input
	// reads the same G flag and marks.
	for now := int64(2); now < 10; now++ {
		tick(d, now, f)
	}
	for _, m := range []*router.Message{m1, m2, m3} {
		if !d.RouteFailed(m, in, []router.LinkID{out}, false, 10) {
			t.Errorf("message %d not marked despite shared G flag", m.ID)
		}
	}
}

func TestNDMValidation(t *testing.T) {
	f := ringFabric(t)
	for _, fn := range []func(){
		func() { detect.NewNDMOpt(f, 0, 8, detect.PromoteAll) },
		func() { detect.NewNDMOpt(f, 4, 2, detect.PromoteAll) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestNDMNames(t *testing.T) {
	f := ringFabric(t)
	if got := detect.NewNDM(f, 32).Name(); got != "ndm(t2=32)" {
		t.Errorf("Name() = %q", got)
	}
	got := detect.NewNDMOpt(f, 2, 32, detect.PromoteWaiting).Name()
	if !strings.Contains(got, "t1=2") || !strings.Contains(got, "selective") {
		t.Errorf("Name() = %q", got)
	}
}

func TestPDMCounterAndMark(t *testing.T) {
	f := ringFabric(t)
	d := detect.NewPDM(f, 4)
	in := f.NetLink(0, 0)
	out := f.NetLink(1, 0)
	m := occupy(t, f, in, 3)
	occupy(t, f, out, 4)

	// Below threshold: no mark even on later attempts.
	for now := int64(0); now <= 4; now++ {
		if d.RouteFailed(m, in, []router.LinkID{out}, now == 0, now) {
			t.Fatalf("marked at cycle %d", now)
		}
		tick(d, now, f)
	}
	// Threshold exceeded: IF set, mark on the next attempt (first or not).
	if !d.InactivitySet(out) {
		t.Fatal("IF not set")
	}
	if !d.RouteFailed(m, in, []router.LinkID{out}, false, 5) {
		t.Fatal("not marked")
	}
	// Any transmission rescinds it.
	tick(d, 5, f, out)
	if d.InactivitySet(out) {
		t.Fatal("IF survived transmission")
	}
	if d.RouteFailed(m, in, []router.LinkID{out}, false, 6) {
		t.Fatal("marked after activity")
	}
}

func TestPDMMarksEvenOnFirstAttempt(t *testing.T) {
	f := ringFabric(t)
	d := detect.NewPDM(f, 2)
	in := f.NetLink(0, 0)
	out := f.NetLink(1, 0)
	m := occupy(t, f, in, 3)
	occupy(t, f, out, 4)
	for now := int64(0); now < 5; now++ {
		tick(d, now, f)
	}
	if !d.RouteFailed(m, in, []router.LinkID{out}, true, 5) {
		t.Fatal("PDM must mark on the first attempt when all IFs are set")
	}
}

func TestPDMRequiresAllOutputsInactive(t *testing.T) {
	f := ringFabric(t)
	d := detect.NewPDM(f, 2)
	in := f.NetLink(0, 0)
	out1, out2 := f.NetLink(1, 0), f.NetLink(1, 1)
	m := occupy(t, f, in, 3)
	occupy(t, f, out1, 4)
	occupy(t, f, out2, 4)
	for now := int64(0); now < 5; now++ {
		tick(d, now, f, out2) // out2 stays active
	}
	if d.RouteFailed(m, in, []router.LinkID{out1, out2}, false, 5) {
		t.Fatal("marked with one output active")
	}
}

func TestPDMValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	detect.NewPDM(ringFabric(t), 0)
}

func TestSourceAgeTimeout(t *testing.T) {
	d := detect.NewSourceAgeTimeout(100)
	m := &router.Message{InjectTime: 50}
	if d.RouteFailed(m, 0, nil, false, 149) {
		t.Fatal("marked before threshold")
	}
	if !d.RouteFailed(m, 0, nil, false, 151) {
		t.Fatal("not marked after threshold")
	}
	if d.Name() != "src-age(th=100)" {
		t.Errorf("name %q", d.Name())
	}
}

func TestSourceStallTimeout(t *testing.T) {
	d := detect.NewSourceStallTimeout(50)
	m := &router.Message{Length: 16, Injected: 8, LastSourceFlit: 100}
	if d.RouteFailed(m, 0, nil, false, 149) {
		t.Fatal("marked before threshold")
	}
	if !d.RouteFailed(m, 0, nil, false, 151) {
		t.Fatal("not marked after threshold")
	}
	// Fully injected messages cannot be observed by the source.
	m.Injected = 16
	if d.RouteFailed(m, 0, nil, false, 1000) {
		t.Fatal("marked a fully injected message")
	}
}

func TestHeaderBlockTimeout(t *testing.T) {
	d := detect.NewHeaderBlockTimeout(30)
	m := &router.Message{BlockedSince: 100}
	if d.RouteFailed(m, 0, nil, true, 200) {
		t.Fatal("marked on first attempt")
	}
	if d.RouteFailed(m, 0, nil, false, 129) {
		t.Fatal("marked before threshold")
	}
	if !d.RouteFailed(m, 0, nil, false, 131) {
		t.Fatal("not marked after threshold")
	}
}

func TestNoneDetector(t *testing.T) {
	var d detect.None
	if d.Name() != "none" {
		t.Errorf("name %q", d.Name())
	}
	if d.RouteFailed(nil, 0, nil, false, 1<<40) {
		t.Fatal("None marked a message")
	}
	d.RouteSucceeded(nil, 0)
	d.VCFreed(0)
	d.EndCycle(0, nil)
	assertCaps(t, d, false, false, false, false, false)
}

// assertCaps checks which fields of d's capability report are present.
func assertCaps(t *testing.T, d detect.Detector, tracer, flags, probes, snapshot, audit bool) {
	t.Helper()
	c := d.Capabilities()
	for _, f := range []struct {
		field     string
		got, want bool
	}{
		{"SetTracer", c.SetTracer != nil, tracer},
		{"FlagCounts", c.FlagCounts != nil, flags},
		{"ProbeTotals", c.ProbeTotals != nil, probes},
		{"Snapshot", c.Snapshot != nil, snapshot},
		{"Audit", c.Audit != nil, audit},
	} {
		if f.got != f.want {
			t.Errorf("%s: capability %s present = %v, want %v", d.Name(), f.field, f.got, f.want)
		}
	}
}

// TestFlagDetectorCapabilities: NDM and PDM hand over a tracer hook, flag
// counts, a snapshot and an audit, and no probe totals. The counts read the
// detector's live state: NDM reports all three flag classes, PDM only DT.
func TestFlagDetectorCapabilities(t *testing.T) {
	f := ringFabric(t)
	in, out := f.NetLink(0, 0), f.NetLink(1, 0)
	m := occupy(t, f, in, 3)
	occupy(t, f, out, 4)
	ndm, pdm := detect.NewNDMOpt(f, 1, 3, detect.PromoteAll), detect.NewPDM(f, 3)
	for _, d := range []detect.Detector{ndm, pdm} {
		assertCaps(t, d, true, true, false, true, true)
		// The first failed attempt sees an active output (NDM: G set), then
		// both occupied channels idle past every threshold.
		d.RouteFailed(m, in, []router.LinkID{out}, true, 0)
		for now := int64(0); now < 5; now++ {
			tick(d, now, f)
			if err := d.Capabilities().Audit(); err != nil {
				t.Errorf("%s cycle %d: %v", d.Name(), now, err)
			}
		}
	}
	if i, dt, g := ndm.Capabilities().FlagCounts(); i != 2 || dt != 2 || g != 1 {
		t.Errorf("ndm flag counts (I, DT, G) = (%d, %d, %d), want (2, 2, 1)", i, dt, g)
	}
	if i, dt, g := pdm.Capabilities().FlagCounts(); i != 0 || dt != 2 || g != 0 {
		t.Errorf("pdm flag counts (I, DT, G) = (%d, %d, %d), want (0, 2, 0)", i, dt, g)
	}
	canon := snap.Mode{Canonical: true, Now: 5}
	if a, b := ndm.Capabilities().Snapshot(nil, canon), pdm.Capabilities().Snapshot(nil, canon); len(a) == 0 || len(b) == 0 {
		t.Errorf("empty canonical states: ndm %d bytes, pdm %d bytes", len(a), len(b))
	}
}

func TestTimeoutDetectorNoOps(t *testing.T) {
	// The timer-based detectors keep no channel state; their event hooks
	// must be callable no-ops.
	for _, d := range []detect.Detector{
		detect.NewSourceAgeTimeout(10),
		detect.NewSourceStallTimeout(10),
		detect.NewHeaderBlockTimeout(10),
	} {
		d.RouteSucceeded(nil, 0)
		d.VCFreed(0)
		d.EndCycle(0, nil)
		if d.Name() == "" {
			t.Error("empty name")
		}
		assertCaps(t, d, false, false, false, false, false)
	}
}

// TestSnapshotRebuildsFlags: NDM's and PDM's snapshots hold counters (and G/P
// flags) only; Restore re-derives the inactivity flags and the flag counts,
// so the restored detector passes its own audit, reports the same state and
// then counts on like the original. Truncated, overlong and negative-counter
// input is refused.
func TestSnapshotRebuildsFlags(t *testing.T) {
	build := map[string]func(f *router.Fabric) detect.Detector{
		"ndm": func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 6) },
		"pdm": func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 6) },
	}
	for name, mk := range build {
		f := ringFabric(t)
		a := mk(f)
		blocked := occupy(t, f, 2, 6)
		occupy(t, f, 3, 7)
		for now := int64(0); now < 9; now++ {
			if now == 1 {
				// First failed attempt with link 3 still active: G on link 2 (NDM).
				a.RouteFailed(blocked, 2, []router.LinkID{3}, true, now)
			}
			if now < 5 {
				tick(a, now, f) // both occupied links idle
			} else {
				tick(a, now, f, 2) // link 2 transmits, link 3 passes t2
			}
		}
		caps := a.Capabilities()
		b := mk(f)
		snapBytes := caps.Snapshot(nil, snap.Exact)
		if err := b.Capabilities().Restore(snapBytes); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Capabilities().Audit(); err != nil {
			t.Fatalf("%s: restored detector fails its audit: %v", name, err)
		}
		// Restoring over live state replaces it rather than adding to it.
		if err := caps.Restore(snapBytes); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := caps.Audit(); err != nil {
			t.Fatalf("%s: detector restored over itself fails its audit: %v", name, err)
		}
		ai, adt, ag := caps.FlagCounts()
		bi, bdt, bg := b.Capabilities().FlagCounts()
		if ai != bi || adt != bdt || ag != bg || adt == 0 {
			t.Errorf("%s: flag counts %d/%d/%d, original %d/%d/%d", name, bi, bdt, bg, ai, adt, ag)
		}
		for now := int64(9); now < 20; now++ {
			tick(a, now, f, 3)
			tick(b, now, f, 3)
			if !bytes.Equal(b.Capabilities().Snapshot(nil, snap.Exact), caps.Snapshot(nil, snap.Exact)) {
				t.Fatalf("%s: cycle %d: restored detector diverged", name, now)
			}
		}
		for what, in := range map[string][]byte{
			"truncated":        snapBytes[:len(snapBytes)-1],
			"trailing byte":    append(bytes.Clone(snapBytes), 0),
			"negative counter": append([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, snapBytes[8:]...),
		} {
			if err := mk(f).Capabilities().Restore(in); err == nil {
				t.Errorf("%s: %s snapshot accepted", name, what)
			}
		}
	}
	// NDM's G/P bytes follow the counters, one per link. Only a router's input
	// channels have a G/P flag, and a flag is a bool.
	f := ringFabric(t)
	good := detect.NewNDM(f, 6).Snapshot(nil, snap.Exact)
	gp := len(good) - f.NumLinks()
	for _, tc := range []struct {
		name string
		link router.LinkID
		b    byte
		want string
	}{
		{"G on a delivery channel", f.DelLink(3, 0), 1, "no router's input channel"},
		{"G/P byte 2", f.NetLink(3, 0), 2, "G/P flag byte 2"},
	} {
		bad := bytes.Clone(good)
		bad[gp+int(tc.link)] = tc.b
		if err := detect.NewNDM(f, 6).Restore(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	bad := bytes.Clone(good)
	bad[gp+int(f.InjLink(3, 0))] = 1
	if err := detect.NewNDM(f, 6).Restore(bad); err != nil {
		t.Errorf("G on an injection channel refused: %v", err)
	}
	// Mechanisms without state declare it by leaving both fields nil.
	for _, d := range []detect.Detector{detect.None{}, detect.NewSourceAgeTimeout(8), detect.NewSourceStallTimeout(8), detect.NewHeaderBlockTimeout(8)} {
		if c := d.Capabilities(); c.Snapshot != nil || c.Restore != nil {
			t.Errorf("%s reports snapshot capabilities", d.Name())
		}
	}
}
