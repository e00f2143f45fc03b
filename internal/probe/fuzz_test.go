package probe

import (
	"bytes"
	"slices"
	"testing"

	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/topology"
)

// FuzzProbeDigest drives the detector with an arbitrary interleaving of the
// events the engine can deliver — worm creation and release, first and
// repeated routing failures, routing successes, end-of-cycle advances with
// arbitrary transmitted lists, and worm extension — and asserts the
// probe-accounting invariants that the forward/dedupe/return machinery must
// preserve no matter the sequence:
//
//   - conservation: every probe ever spawned is either still in flight or
//     was consumed exactly once (relayed at a header, returned, or dropped);
//   - flits only come from link traversals, so the flit count is at least
//     the number of spawns (each spawn crosses one link);
//   - no in-flight probe exceeds the hop cap, and each sits on a VC still
//     owned by the worm it chases;
//   - at every end of cycle, a fresh detector restored from Snapshot
//     snapshots to the same bytes, exact and canonical.
//
// The byte stream is an op-code program; indices are reduced modulo the
// fabric's sizes so every input is valid by construction. The header bytes
// reach both transports, both victim policies and a spread of hop caps.
func FuzzProbeDigest(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 5, 2, 9, 4, 4})                      // create + fail + cycle
	f.Add([]byte{1, 2, 0, 1, 0, 2, 4, 0, 4, 3, 4, 7, 1, 1})          // ctrl-vc, release mid-flight
	f.Add([]byte{2, 7, 0, 8, 0, 0, 1, 0, 2, 1, 3, 2, 4, 3, 5, 0, 1}) // every op once
	f.Add([]byte{3, 1, 0, 1, 0, 9, 0, 17, 2, 9, 127, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 5, 9, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{InitDelay: 1, MaxHops: int32(data[0]%8) + 1}
		if data[0]&1 == 1 {
			cfg.Transport = TransportControlVC
		}
		if data[0]&2 == 2 {
			cfg.Victim = VictimOldest
		}
		cfg.ReprobeEvery = int64(data[1]%16) + 1
		data = data[2:]

		topo := topology.New(3, 2)
		rcfg := router.DefaultConfig()
		rcfg.VCsPerLink = 2
		fab, err := router.NewFabric(topo, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		d := New(fab, cfg)

		nLinks := fab.NumLinks()
		nNodes := topo.Nodes()
		var txLinks []router.LinkID
		var live []*router.Message
		outsBuf := make([]router.LinkID, 0, 8)
		now := int64(1)

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
			case 0: // create a blocked single-flit worm and register it
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
				m.Attempts = 1
				m.BlockedSince = now
				outsBuf = outsBuf[:0]
				for i := int(next())%4 + 1; i > 0; i-- {
					outsBuf = append(outsBuf, link())
				}
				d.RouteFailed(m, l, outsBuf, true, now)
				live = append(live, m)
			case 1: // release a worm (probes on it must go stale)
				if len(live) == 0 {
					break
				}
				i := int(next()) % len(live)
				m := live[i]
				for _, vc := range fab.ReleaseWorm(m) {
					d.VCFreed(fab.LinkOfVC(vc))
				}
				m.Phase = router.PhaseDelivered
				d.RouteSucceeded(m, router.NilLink)
				fab.FreeMessage(m)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2: // repeated failed attempt on a live worm
				if len(live) == 0 {
					break
				}
				m := live[int(next())%len(live)]
				outsBuf = outsBuf[:0]
				for i := int(next())%4 + 1; i > 0; i-- {
					outsBuf = append(outsBuf, link())
				}
				m.Attempts++
				d.RouteFailed(m, fab.LinkOfVC(m.HeadVC), outsBuf, false, now)
			case 3: // successful routing of a live worm
				if len(live) == 0 {
					break
				}
				m := live[int(next())%len(live)]
				m.Attempts = 0
				d.RouteSucceeded(m, fab.LinkOfVC(m.HeadVC))
			case 4: // end of cycle with an arbitrary transmitted list
				txLinks = txLinks[:0]
				for i := int(next()) % 8; i > 0; i-- {
					if l := link(); !slices.Contains(txLinks, l) {
						txLinks = append(txLinks, l)
					}
				}
				d.EndCycle(now, txLinks)
				now++
				// Between cycles the state must survive a snapshot: a
				// fresh detector restored from it writes the same bytes
				// and the same canonical state.
				state := d.Snapshot(nil, snap.Exact)
				fresh := New(fab, cfg)
				if err := fresh.Restore(state); err != nil {
					t.Fatalf("cycle %d: Restore refused the detector's own snapshot: %v", now-1, err)
				}
				if again := fresh.Snapshot(nil, snap.Exact); !bytes.Equal(again, state) {
					t.Fatalf("cycle %d: the restored detector snapshots to different bytes", now-1)
				}
				canon := snap.Mode{Canonical: true, Now: now}
				if got, want := fresh.Snapshot(nil, canon), d.Snapshot(nil, canon); !bytes.Equal(got, want) {
					t.Fatalf("cycle %d: the restored detector encodes its state differently", now-1)
				}
			case 5: // extend a live worm by one VC (grow its body)
				if len(live) == 0 {
					break
				}
				m := live[int(next())%len(live)]
				vc := fab.FreeVC(link())
				if vc == router.NilVC || m.Phase != router.PhaseNetwork {
					break
				}
				fab.VCs[m.HeadVC].HasHeader = false
				fab.Allocate(m, m.HeadVC, vc)
				m.HeadVC = vc
				fab.VCs[vc].Flits = 1
				fab.VCs[vc].HasHeader = true
			}

			// Accounting invariants, checked after every event. Seed
			// returns consume a virtual probe that was never in flight
			// (a self-cycle found during fan-out at the initiator), so
			// they sit outside the spawn/consume ledger.
			pt := d.ProbeTotals()
			consumed := d.relayed + (pt.Returned - d.seedRet) + pt.Dropped
			if int64(pt.InFlight) != pt.Emitted+pt.Forwarded-consumed {
				t.Fatalf("probe conservation violated: inflight %d != %d emitted + %d forwarded - %d consumed",
					pt.InFlight, pt.Emitted, pt.Forwarded, consumed)
			}
			if pt.Flits < pt.Emitted+pt.Forwarded {
				t.Fatalf("flits %d < spawns %d: a probe spawned without crossing a link",
					pt.Flits, pt.Emitted+pt.Forwarded)
			}
			for _, p := range d.probes {
				if p.hops > d.cfg.MaxHops {
					t.Fatalf("in-flight probe at %d hops exceeds cap %d", p.hops, d.cfg.MaxHops)
				}
			}
		}
	})
}
