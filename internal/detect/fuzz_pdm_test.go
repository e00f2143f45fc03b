package detect

import (
	"slices"
	"testing"

	"wormnet/internal/router"
	"wormnet/internal/topology"
)

// FuzzPDMFlags drives PDM's per-channel counter/flag hardware (paper Figure
// 1) with an arbitrary interleaving of the events the engine can deliver —
// VC allocations and worm releases, routing attempts and end-of-cycle
// transmitted lists — and asserts that it never panics and that its state
// stays legal:
//
//   - the cached IF-occupancy count equals the number of set flags;
//   - counters never go negative, and a transmitted channel leaves EndCycle
//     with a zero counter and a clear flag;
//   - RouteFailed presumes deadlock exactly when every feasible output has
//     its flag set;
//   - a second PDM ending each cycle through the eager per-link reference
//     (refEndCycle: the list-walking idle set and its own crossing test)
//     instead of the kernel's word loop holds equal counters and flag count
//     after every event, and the detector's own audit passes.
//
// The byte stream is an op-code program with the same shape as
// FuzzNDMFlags; the committed corpus seeds under testdata (once sampled from
// the model checker's frontier states) are valid programs for both
// harnesses.
func FuzzPDMFlags(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5, 1, 9, 2, 4})
	f.Add([]byte{1, 4, 0, 1, 0, 2, 4, 0, 4, 3, 4, 7, 4, 1})
	f.Add([]byte{0, 8, 0, 0, 1, 0, 2, 1, 3, 2, 4, 3, 5, 0, 1})
	f.Add([]byte{0, 1, 0, 9, 0, 17, 1, 9, 127, 3, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 2, 9, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		threshold := int64(data[1]%8) + 1
		data = data[2:]

		topo := topology.New(3, 2)
		rcfg := router.DefaultConfig()
		rcfg.VCsPerLink = 2
		fab, err := router.NewFabric(topo, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		d := NewPDM(fab, threshold)
		ref := NewPDM(fab, threshold)

		nLinks := fab.NumLinks()
		nNodes := topo.Nodes()
		var txLinks []router.LinkID
		var live []*router.Message
		outsBuf := make([]router.LinkID, 0, 4)
		probe := fab.NewMessage(0, nNodes-1, 4, 0)
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
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2: // failed routing attempt: verdict must match the flags
				in := link()
				outsBuf = outsBuf[:0]
				for i := int(next())%4 + 1; i > 0; i-- {
					outsBuf = append(outsBuf, link())
				}
				allSet := true
				for _, o := range outsBuf {
					if !d.InactivitySet(o) {
						allSet = false
						break
					}
				}
				first := next()&1 == 0
				if got := d.RouteFailed(probe, in, outsBuf, first, now); got != allSet {
					t.Fatalf("RouteFailed = %v with all-flags-set = %v", got, allSet)
				}
			case 3: // successful routing (a no-op for PDM; must not panic)
				d.RouteSucceeded(probe, link())
			case 4: // end of cycle with an arbitrary transmitted list
				txLinks = txLinks[:0]
				for i := int(next()) % 8; i > 0; i-- {
					l := link()
					if !slices.Contains(txLinks, l) {
						txLinks = append(txLinks, l)
					}
				}
				d.EndCycle(now, txLinks)
				ref.refEndCycle(txLinks)
				now++
				for _, l := range txLinks {
					if d.counter[l] != 0 || d.InactivitySet(l) {
						t.Fatalf("link %d transmitted yet counter=%d flag=%v after EndCycle",
							l, d.counter[l], d.InactivitySet(l))
					}
				}
			case 5: // flow-control event on an arbitrary channel
				d.VCFreed(link())
			}
			samePDM(t, d, ref)

			// Flag/counter invariants, checked after every event.
			ifSet := 0
			for l := router.LinkID(0); int(l) < nLinks; l++ {
				if d.InactivitySet(l) {
					ifSet++
				}
				if d.counter[l] < 0 {
					t.Fatalf("link %d: negative counter %d", l, d.counter[l])
				}
			}
			if _, dt, _ := d.FlagCounts(); ifSet != dt {
				t.Fatalf("IF occupancy cache %d != %d set flags", dt, ifSet)
			}
		}
	})
}
