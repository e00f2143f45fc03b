package detect

import (
	"strings"
	"testing"

	"wormnet/internal/router"
	"wormnet/internal/topology"
)

// refIdleLinks is the differential reference for idleScan.each: the
// list-walking selection the bitmap loop replaced, one link at a time off
// the engine's transmitted []bool and the fabric's per-link occupancy.
func refIdleLinks(f *router.Fabric, transmitted []bool) []router.LinkID {
	var out []router.LinkID
	for l := 0; l < f.NumLinks(); l++ {
		id := router.LinkID(l)
		if f.BusyVCs(id) == 0 || transmitted[l] || !f.IsMonitored(id) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// refEndCycle is EndCycle with the counting half driven by refIdleLinks.
func (d *NDM) refEndCycle(txLinks []router.LinkID, transmitted []bool) {
	d.reset(txLinks)
	for _, id := range refIdleLinks(d.f, transmitted) {
		d.count(id)
	}
}

func (d *PDM) refEndCycle(txLinks []router.LinkID, transmitted []bool) {
	d.reset(txLinks)
	for _, id := range refIdleLinks(d.f, transmitted) {
		d.count(id)
	}
}

// sameNDM fails the test unless d and ref hold equal counters, flags and
// flag counts, and d passes its own audit.
func sameNDM(t *testing.T, d, ref *NDM) {
	t.Helper()
	for l := range d.counter {
		if d.counter[l] != ref.counter[l] || d.iFlag[l] != ref.iFlag[l] ||
			d.dtFlag[l] != ref.dtFlag[l] || d.gp[l] != ref.gp[l] {
			t.Fatalf("link %d: counter/I/DT/G %d/%v/%v/%v, reference %d/%v/%v/%v", l,
				d.counter[l], d.iFlag[l], d.dtFlag[l], d.gp[l],
				ref.counter[l], ref.iFlag[l], ref.dtFlag[l], ref.gp[l])
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
		if d.counter[l] != ref.counter[l] || d.ifFlag[l] != ref.ifFlag[l] {
			t.Fatalf("link %d: counter/IF %d/%v, reference %d/%v", l,
				d.counter[l], d.ifFlag[l], ref.counter[l], ref.ifFlag[l])
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
	transmitted := make([]bool, f.NumLinks())
	endCycle := func(now int64, tx ...router.LinkID) {
		for _, l := range tx {
			transmitted[l] = true
		}
		ndm.EndCycle(now, tx, transmitted)
		pdm.EndCycle(now, tx, transmitted)
		for _, l := range tx {
			transmitted[l] = false
		}
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
			t.Fatalf("cycle %d: counters ndm=%d pdm=%d, want %d (stale transmitted bit?)",
				now, ndm.counter[del], pdm.counter[del], now)
		}
	}
	if !ndm.IFlagSet(del) || !ndm.DTFlagSet(del) || !pdm.InactivitySet(del) {
		t.Fatal("flags not raised after three idle cycles at threshold 2")
	}
}

// TestAuditNamesCorruptedState: each class of redundant state the audits
// cover, corrupted one at a time, is reported.
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
		{"ndm lattice", func(n *NDM, _ *PDM) { n.dtFlag[7] = true }, "link 7: DT set with I clear"},
		{"ndm flag vs counter", func(n *NDM, _ *PDM) { n.counter[7] = 2 }, "link 7: counter 2"},
		{"ndm I count", func(n *NDM, _ *PDM) { n.iBusy++ }, "recount"},
		{"ndm DT count", func(n *NDM, _ *PDM) { n.dtBusy-- }, "recount"},
		{"ndm G count", func(n *NDM, _ *PDM) { n.gp[3] = true }, "recount"},
		{"pdm flag vs counter", func(_ *NDM, p *PDM) { p.ifFlag[9] = true }, "link 9: counter 0"},
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
