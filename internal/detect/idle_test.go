package detect

import (
	"math/bits"
	"slices"
	"strings"
	"testing"

	"wormnet/internal/router"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
)

// refIdleLinks is the differential reference for idleScan.advance: the
// list-walking selection the bitmap loop replaced, one link at a time off
// the cycle's transmitted list and the fabric's per-link occupancy.
func refIdleLinks(f *router.Fabric, txLinks []router.LinkID) []router.LinkID {
	var out []router.LinkID
	for l := 0; l < f.NumLinks(); l++ {
		id := router.LinkID(l)
		if f.BusyVCs(id) == 0 || slices.Contains(txLinks, id) || !f.IsMonitored(id) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// refEndCycle is EndCycle as an eager per-link loop that shares no loop with
// the kernel: its own reset with the per-input promotion walk (refPromote),
// then one increment per idle link off refIdleLinks, a flag rising where it
// reads set after the increment and clear before.
func (d *NDM) refEndCycle(txLinks []router.LinkID) {
	for _, id := range txLinks {
		if d.IFlagSet(id) {
			d.refPromote(id)
			d.iBusy--
			d.tr.Emit(trace.KindIClear, router.NilMsg, id, -1, 0, -1)
		}
		if d.DTFlagSet(id) {
			d.dtBusy--
			d.tr.Emit(trace.KindDTClear, router.NilMsg, id, -1, 0, -1)
		}
		d.counter[id] = 0
	}
	for _, id := range refIdleLinks(d.f, txLinks) {
		wasI, wasDT := d.IFlagSet(id), d.DTFlagSet(id)
		d.counter[id]++
		if d.IFlagSet(id) && !wasI {
			d.iBusy++
			d.tr.Emit(trace.KindISet, router.NilMsg, id, -1, 0, -1)
		}
		if d.DTFlagSet(id) && !wasDT {
			d.dtBusy++
			d.tr.Emit(trace.KindDTSet, router.NilMsg, id, -1, 0, -1)
		}
	}
}

// refPromote is promote as the paper words it: walk the router's input
// channels in order and turn each P flag that qualifies to G, one at a time.
func (d *NDM) refPromote(out router.LinkID) {
	node := int(d.f.Links[out].Src)
	if node < 0 {
		return
	}
	for _, in := range d.inputs[node] {
		if d.GPIsGenerate(in) || d.Promotion == PromoteWaiting && !d.waitingOn(in, out, node) {
			continue
		}
		d.setG(in, router.NilMsg, trace.GRulePromotion, out)
	}
}

func (d *PDM) refEndCycle(txLinks []router.LinkID) {
	for _, id := range txLinks {
		if d.InactivitySet(id) {
			d.ifBusy--
			d.tr.Emit(trace.KindDTClear, router.NilMsg, id, -1, 0, -1)
		}
		d.counter[id] = 0
	}
	for _, id := range refIdleLinks(d.f, txLinks) {
		was := d.InactivitySet(id)
		d.counter[id]++
		if d.InactivitySet(id) && !was {
			d.ifBusy++
			d.tr.Emit(trace.KindDTSet, router.NilMsg, id, -1, 0, -1)
		}
	}
}

// sameNDM fails the test unless d and ref hold equal counters, G/P words and
// flag counts, and d passes its own audit.
func sameNDM(t *testing.T, d, ref *NDM) {
	t.Helper()
	for l := range d.counter {
		if d.counter[l] != ref.counter[l] {
			t.Fatalf("link %d: counter %d, reference %d", l, d.counter[l], ref.counter[l])
		}
	}
	for node := range d.gpm {
		if d.gpm[node] != ref.gpm[node] {
			t.Fatalf("router %d: G/P word %#x, reference %#x", node, d.gpm[node], ref.gpm[node])
		}
	}
	i, dt, g := d.FlagCounts()
	if ri, rdt, rg := ref.FlagCounts(); i != ri || dt != rdt || g != rg {
		t.Fatalf("flag counts %d/%d/%d, reference %d/%d/%d", i, dt, g, ri, rdt, rg)
	}
	if err := d.Audit(); err != nil {
		t.Fatal(err)
	}
}

func samePDM(t *testing.T, d, ref *PDM) {
	t.Helper()
	for l := range d.counter {
		if d.counter[l] != ref.counter[l] {
			t.Fatalf("link %d: counter %d, reference %d", l, d.counter[l], ref.counter[l])
		}
	}
	_, dt, _ := d.FlagCounts()
	if _, rdt, _ := ref.FlagCounts(); dt != rdt {
		t.Fatalf("flag count %d, reference %d", dt, rdt)
	}
	if err := d.Audit(); err != nil {
		t.Fatal(err)
	}
}

// recordInto returns a recorder that appends every event to *evs.
func recordInto(evs *[]trace.Event) *trace.Recorder {
	rec := trace.NewRecorder(1)
	rec.SetObserver(func(ev trace.Event) { *evs = append(*evs, ev) })
	return rec
}

// TestTransmittedAndReleasedSameCycle pins the case that makes the tx mask a
// trap: a delivery channel receives a tail flit and is drained empty within
// one cycle, so at EndCycle it is in txLinks but not in the busy set. A mask
// cleared only where busy words were scanned would keep that bit and freeze
// the channel's counter the next time it sits occupied and idle.
func TestTransmittedAndReleasedSameCycle(t *testing.T) {
	f, err := router.NewFabric(topology.New(4, 2), router.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	del := f.DelLink(5, 0)
	ndm, pdm := NewNDM(f, 2), NewPDM(f, 2)
	endCycle := func(now int64, tx ...router.LinkID) {
		ndm.EndCycle(now, tx)
		pdm.EndCycle(now, tx)
	}
	hold := func() *router.Message {
		m := f.NewMessage(0, 5, 1, 0)
		f.Allocate(m, router.NilVC, f.FreeVC(del))
		return m
	}

	// Cycle 0: the flit crosses del and the sink consumes it before EndCycle.
	f.ReleaseWorm(hold())
	if f.BusyVCs(del) != 0 {
		t.Fatal("delivery link still busy after release")
	}
	endCycle(0, del)
	// Cycles 1..3: del is occupied again and nothing moves.
	hold()
	for now := int64(1); now <= 3; now++ {
		endCycle(now)
		if ndm.counter[del] != now || pdm.counter[del] != now {
			t.Fatalf("cycle %d: counters ndm=%d pdm=%d, want %d (stale tx mask bit?)",
				now, ndm.counter[del], pdm.counter[del], now)
		}
	}
	if !ndm.IFlagSet(del) || !ndm.DTFlagSet(del) || !pdm.InactivitySet(del) {
		t.Fatal("flags not raised after three idle cycles at threshold 2")
	}
}

// TestPromoteAllWordMatchesPerInput: on a router with two injection ports,
// from every split of its inputs into G and P, PromoteAll's word operation
// raises the same bits, counts the same gBusy and, with a recorder attached,
// emits the same KindGSet sequence as the per-input reference walk; without a
// recorder it raises the same bits silently.
func TestPromoteAllWordMatchesPerInput(t *testing.T) {
	f, err := router.NewFabric(topology.New(4, 2),
		router.Config{VCsPerLink: 2, BufFlits: 4, InjPorts: 2, DelPorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	const node = 5
	for _, out := range []router.LinkID{f.NetLink(node, 1), f.DelLink(node, 0)} {
		d := NewNDM(f, 4)
		inputs := d.inputs[node]
		if len(inputs) != 6 || f.Links[inputs[5]].Kind != router.InjectionLink {
			t.Fatalf("router %d inputs %v, want 4 network and 2 injection channels", node, inputs)
		}
		for mask := uint64(0); mask < 1<<len(inputs); mask++ {
			word, ref, silent := NewNDM(f, 4), NewNDM(f, 4), NewNDM(f, 4)
			for _, n := range []*NDM{word, ref, silent} {
				for i, in := range inputs {
					if mask>>i&1 != 0 {
						n.setG(in, 1, trace.GRuleFirstAttempt, out)
					}
				}
			}
			var got, want []trace.Event
			word.SetTracer(recordInto(&got))
			ref.SetTracer(recordInto(&want))
			word.promote(out)
			ref.refPromote(out)
			silent.promote(out)
			if !slices.Equal(got, want) {
				t.Fatalf("out %d, G mask %#x: events %v, reference %v", out, mask, got, want)
			}
			if len(got) != len(inputs)-bits.OnesCount64(mask) {
				t.Fatalf("out %d, G mask %#x: %d GSet events", out, mask, len(got))
			}
			sameNDM(t, word, ref)
			sameNDM(t, silent, ref)
		}
	}
}

// TestISetBeforeDTSetWhenT1EqualsT2: with t1 == t2 both flags rise on the
// same cycle, I first; a transmission then promotes the router's inputs,
// clears I, then DT — the same sequence as the eager reference.
func TestISetBeforeDTSetWhenT1EqualsT2(t *testing.T) {
	f, err := router.NewFabric(topology.New(4, 2), router.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, ref := NewNDMOpt(f, 2, 2, PromoteAll), NewNDMOpt(f, 2, 2, PromoteAll)
	var got, want []trace.Event
	d.SetTracer(recordInto(&got))
	ref.SetTracer(recordInto(&want))
	l := f.NetLink(0, 0)
	f.Allocate(f.NewMessage(0, 5, 1, 0), router.NilVC, f.FreeVC(l))
	for now := int64(0); now < 4; now++ {
		d.EndCycle(now, nil)
		ref.refEndCycle(nil)
	}
	d.EndCycle(4, []router.LinkID{l})
	ref.refEndCycle([]router.LinkID{l})
	if !slices.Equal(got, want) {
		t.Fatalf("events %v, reference %v", got, want)
	}
	var kinds []trace.Kind
	for _, ev := range got {
		if ev.Kind != trace.KindGSet {
			kinds = append(kinds, ev.Kind)
		}
	}
	if !slices.Equal(kinds, []trace.Kind{trace.KindISet, trace.KindDTSet, trace.KindIClear, trace.KindDTClear}) {
		t.Fatalf("flag events %v, want ISet, DTSet, IClear, DTClear", kinds)
	}
	if g := len(got) - len(kinds); g != len(d.inputs[0]) || got[2].Kind != trace.KindGSet {
		t.Fatalf("%d GSet events, want %d ahead of IClear", g, len(d.inputs[0]))
	}
}

// TestAuditNamesCorruptedState: each class of redundant state the audits
// cover, corrupted one at a time, is reported. The flags are the counters
// compared with their thresholds, so a corrupted counter shows up as a count
// that no longer matches.
func TestAuditNamesCorruptedState(t *testing.T) {
	f, err := router.NewFabric(topology.New(4, 2), router.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*NDM, *PDM)
		want    string
	}{
		{"ndm negative counter", func(n *NDM, _ *PDM) { n.counter[7] = -1 }, "link 7: negative inactivity counter -1"},
		{"ndm counter past t1", func(n *NDM, _ *PDM) { n.counter[7] = 2 }, "I/DT/G 0/0/0, recount 1/0/0"},
		{"ndm I count", func(n *NDM, _ *PDM) { n.iBusy++ }, "recount"},
		{"ndm DT count", func(n *NDM, _ *PDM) { n.dtBusy-- }, "recount"},
		{"ndm G count", func(n *NDM, _ *PDM) { n.gpm[3] = 1 }, "recount 0/0/1"},
		{"pdm negative counter", func(_ *NDM, p *PDM) { p.counter[9] = -3 }, "link 9: negative inactivity counter -3"},
		{"pdm counter past threshold", func(_ *NDM, p *PDM) { p.counter[9] = 5 }, "pdm flag count 0, recount 1"},
		{"pdm count", func(_ *NDM, p *PDM) { p.ifBusy++ }, "recount"},
	} {
		ndm, pdm := NewNDM(f, 4), NewPDM(f, 4)
		if err := ndm.Audit(); err != nil {
			t.Fatal(err)
		}
		if err := pdm.Audit(); err != nil {
			t.Fatal(err)
		}
		tc.corrupt(ndm, pdm)
		err := ndm.Audit()
		if err == nil {
			err = pdm.Audit()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
