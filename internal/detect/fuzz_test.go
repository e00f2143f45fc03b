package detect

import (
	"slices"
	"testing"

	"wormnet/internal/router"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
)

// FuzzNDMFlags drives NDM's per-channel flag state machine with an arbitrary
// interleaving of the events the engine can deliver — VC allocations and
// worm releases, first and repeated routing failures, routing successes, and
// end-of-cycle transmitted lists — and asserts that it never panics and
// that its state stays inside the legal lattice:
//
//   - DT set on a channel implies I set (t1 <= t2: a counter past the
//     detection threshold is necessarily past the inactivity threshold);
//   - the cached DT-occupancy count equals the number of set DT flags;
//   - inactivity counters never go negative;
//   - a second NDM fed the same events, but ending each cycle through the
//     eager per-link reference (refEndCycle: the list-walking idle set, its
//     own crossing test, the per-input promotion walk) instead of the
//     kernel's word loops, holds equal counters, G/P words and flag counts
//     after every event and, when traced, has emitted the same events; and
//     the detector's own audit passes.
//
// The byte stream is an op-code program: each iteration consumes an op and
// its operands, reducing indices modulo the fabric's sizes so every input is
// valid by construction. Both promotion policies, tracing on or off and a
// spread of thresholds are reachable through the header bytes.
func FuzzNDMFlags(f *testing.F) {
	// Seed corpus (alongside the committed files under testdata): one
	// program per op plus one long mixed program.
	f.Add([]byte{0, 3, 0, 5, 1, 9, 2, 4})                      // allocate + route-fail
	f.Add([]byte{1, 4, 0, 1, 0, 2, 4, 0, 4, 3, 4, 7, 4, 1})    // selective promotion, cycles
	f.Add([]byte{0, 8, 0, 0, 1, 0, 2, 1, 3, 2, 4, 3, 5, 0, 1}) // every op once
	f.Add([]byte{0, 1, 0, 9, 0, 17, 1, 9, 127, 3, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 2, 9, 5, 0})
	f.Add([]byte{2, 1, 0, 9, 0, 17, 1, 9, 127, 3, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 1, 9, 2, 9, 5, 0}) // traced
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		pol := PromoteAll
		if data[0]&1 == 1 {
			pol = PromoteWaiting
		}
		t2 := int64(data[1]%8) + 1

		topo := topology.New(3, 2)
		rcfg := router.DefaultConfig()
		rcfg.VCsPerLink = 2
		fab, err := router.NewFabric(topo, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		d := NewNDMOpt(fab, 1, t2, pol)
		ref := NewNDMOpt(fab, 1, t2, pol)
		var got, want []trace.Event
		if data[0]&2 != 0 {
			d.SetTracer(recordInto(&got))
			ref.SetTracer(recordInto(&want))
		}
		data = data[2:]

		nLinks := fab.NumLinks()
		nNodes := topo.Nodes()
		var txLinks []router.LinkID
		var live []*router.Message // single-flit worms occupying one VC each
		outsBuf := make([]router.LinkID, 0, 4)
		probe := fab.NewMessage(0, nNodes-1, 4, 0) // header for route events
		now := int64(0)

		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		link := func() router.LinkID { return router.LinkID(int(next()) % nLinks) }

		for pos < len(data) {
			switch next() % 6 {
			case 0: // occupy a VC with a blocked single-flit worm
				l := link()
				vc := fab.FreeVC(l)
				if vc == router.NilVC {
					break
				}
				m := fab.NewMessage(0, int(next())%nNodes, 1, now)
				fab.Allocate(m, router.NilVC, vc)
				m.HeadVC, m.Phase = vc, router.PhaseNetwork
				fab.VCs[vc].Flits = 1
				fab.VCs[vc].HasHeader = true
				fab.VCs[vc].HasTail = true
				live = append(live, m)
			case 1: // release a worm, firing the flow-control event
				if len(live) == 0 {
					break
				}
				i := int(next()) % len(live)
				m := live[i]
				for _, vc := range fab.ReleaseWorm(m) {
					d.VCFreed(fab.LinkOfVC(vc))
					ref.VCFreed(fab.LinkOfVC(vc))
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2: // failed routing attempt
				in := link()
				outsBuf = outsBuf[:0]
				for i := int(next())%4 + 1; i > 0; i-- {
					outsBuf = append(outsBuf, link())
				}
				first := next()&1 == 0
				if got, want := d.RouteFailed(probe, in, outsBuf, first, now), ref.RouteFailed(probe, in, outsBuf, first, now); got != want {
					t.Fatalf("RouteFailed = %v, reference %v", got, want)
				}
			case 3: // successful routing
				in := link()
				d.RouteSucceeded(probe, in)
				ref.RouteSucceeded(probe, in)
			case 4: // end of cycle with an arbitrary transmitted list
				txLinks = txLinks[:0]
				for i := int(next()) % 8; i > 0; i-- {
					l := link()
					if !slices.Contains(txLinks, l) { // each link at most once, per contract
						txLinks = append(txLinks, l)
					}
				}
				d.EndCycle(now, txLinks)
				ref.refEndCycle(txLinks)
				now++
			case 5: // flow-control event on an arbitrary channel
				l := link()
				d.VCFreed(l)
				ref.VCFreed(l)
			}
			sameNDM(t, d, ref)
			if !slices.Equal(got, want) {
				t.Fatalf("events %v, reference %v", got, want)
			}
			got, want = got[:0], want[:0]

			// Lattice invariants, checked after every event.
			dtSet := 0
			for l := router.LinkID(0); int(l) < nLinks; l++ {
				if d.DTFlagSet(l) {
					dtSet++
					if !d.IFlagSet(l) {
						t.Fatalf("link %d: DT set with I clear (t1 <= t2 violated)", l)
					}
				}
				if d.counter[l] < 0 {
					t.Fatalf("link %d: negative inactivity counter %d", l, d.counter[l])
				}
			}
			if _, dt, _ := d.FlagCounts(); dtSet != dt {
				t.Fatalf("DT occupancy cache %d != %d set flags", dt, dtSet)
			}
		}
	})
}
