package router

import (
	"fmt"
	"math/bits"
	"testing"

	"wormnet/internal/rng"
	"wormnet/internal/topology"
)

// TestFabricOperationFuzz drives the fabric with a long random sequence of
// legal operations (allocate worms hop by hop, move flits, feed flits,
// drain heads, kill worms) and checks the structural invariants after
// every step. This is the safety net under the engine: any sequence of
// legal primitive operations must keep the fabric consistent. After every
// operation both levels of the occupied-VC bitmap are recounted against a
// model set: the VCs on the chains of the worms the test itself keeps alive.
// The subtest keeps its historical name: one shard is the whole fabric, the
// only layout the fabric has.
func TestFabricOperationFuzz(t *testing.T) {
	t.Run("shards=1", fabricOperationFuzz)
}

func fabricOperationFuzz(t *testing.T) {
	f, err := NewFabric(topology.New(4, 2), Config{VCsPerLink: 2, BufFlits: 4, InjPorts: 2, DelPorts: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(20260704)

	type worm struct {
		m *Message
	}
	var worms []worm

	checkEvery := 0
	lastOp := -1
	for step := 0; step < 20000; step++ {
		op := r.Intn(10)
		lastOp = op
		switch {
		case op < 2: // start a new worm at a random injection port
			node := r.Intn(f.Topo.Nodes())
			port := r.Intn(f.Cfg.InjPorts)
			vc := f.FreeVC(f.InjLink(node, port))
			if vc == NilVC {
				continue
			}
			dst := r.Intn(f.Topo.Nodes())
			if dst == node {
				continue
			}
			m := f.NewMessage(node, dst, 1+r.Intn(32), 0)
			m.Phase = PhaseNetwork
			f.Allocate(m, NilVC, vc)
			m.HeadVC = vc
			worms = append(worms, worm{m})

		case op < 4: // extend a random worm's head onto a random free candidate
			if len(worms) == 0 {
				continue
			}
			w := worms[r.Intn(len(worms))]
			if w.m.HeadVC == NilVC {
				continue
			}
			hv := &f.VCs[w.m.HeadVC]
			if hv.Next != NilVC || !hv.HasHeader {
				// Routing only ever happens with the header flit waiting at
				// the front of the chain.
				continue
			}
			if f.Links[hv.Link].Kind == DeliveryLink {
				continue // engine never routes out of a delivery buffer
			}
			node := f.RouterOf(hv.Link)
			out := f.PickVC(vcsOf(f, f.Candidates(w.m, node, nil)...), r)
			if out == NilVC {
				continue
			}
			f.Allocate(w.m, w.m.HeadVC, out)

		case op < 6: // feed a flit into a worm's tail (source injection)
			if len(worms) == 0 {
				continue
			}
			w := worms[r.Intn(len(worms))]
			if w.m.TailVC == NilVC || w.m.Injected >= w.m.Length {
				continue
			}
			// Feeding happens at the backmost VC of the chain only while
			// the worm still starts at its injection VC.
			back := w.m.TailVC
			if f.Links[f.VCs[back].Link].Kind != InjectionLink {
				continue
			}
			bv := &f.VCs[back]
			if bv.Flits >= int32(f.Cfg.BufFlits) {
				continue
			}
			first := w.m.Injected == 0
			bv.Flits++
			w.m.Injected++
			if first {
				bv.HasHeader = true
			}
			if w.m.Injected == w.m.Length {
				bv.HasTail = true
			}

		case op < 8: // move a flit forward somewhere in a random worm
			if len(worms) == 0 {
				continue
			}
			w := worms[r.Intn(len(worms))]
			for vc := w.m.TailVC; vc != NilVC; vc = f.VCs[vc].Next {
				v := &f.VCs[vc]
				if v.Flits > 0 && v.Next != NilVC && f.VCs[v.Next].Flits < int32(f.Cfg.BufFlits) {
					// Capture the successor before MoveFlit: a tail passage
					// releases vc and clears its Next pointer.
					next := v.Next
					header, tail := f.MoveFlit(vc)
					if header {
						w.m.HeadVC = next
					}
					if tail {
						w.m.TailVC = next
					}
					break
				}
			}

		case op < 9: // drain one flit at the head (delivery/absorption)
			if len(worms) == 0 {
				continue
			}
			i := r.Intn(len(worms))
			w := worms[i]
			if w.m.HeadVC == NilVC {
				continue
			}
			hv := &f.VCs[w.m.HeadVC]
			if hv.Flits == 0 || hv.Next != NilVC {
				// Draining (delivery or absorption) only happens at the true
				// front of the chain.
				continue
			}
			tail := hv.HasTail && hv.Flits == 1
			hv.Flits--
			hv.HasHeader = false
			w.m.Consumed++
			if tail {
				f.ReleaseEmptyVC(w.m.HeadVC)
				w.m.HeadVC = NilVC
				w.m.TailVC = NilVC
				f.FreeMessage(w.m)
				worms[i] = worms[len(worms)-1]
				worms = worms[:len(worms)-1]
			}

		default: // kill a random worm outright (regressive recovery)
			if len(worms) == 0 {
				continue
			}
			i := r.Intn(len(worms))
			w := worms[i]
			f.ReleaseWorm(w.m)
			f.FreeMessage(w.m)
			worms[i] = worms[len(worms)-1]
			worms = worms[:len(worms)-1]
		}

		model := map[VCID]bool{}
		for _, w := range worms {
			for vc := w.m.TailVC; vc != NilVC; vc = f.VCs[vc].Next {
				model[vc] = true
			}
		}
		checkOccupiedBits(t, f, model, fmt.Sprintf("step %d (op %d)", step, lastOp))
		checkEvery++
		if checkEvery == 25 {
			checkEvery = 0
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("step %d (op %d): %v", step, lastOp, err)
			}
			checkBusyLinkWords(t, f)
		}
	}
	// Final teardown: kill everything; fabric must return to pristine.
	for _, w := range worms {
		f.ReleaseWorm(w.m)
		f.FreeMessage(w.m)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := f.NumOccupied(); got != 0 {
		t.Fatalf("%d VCs still occupied after teardown", got)
	}
	if got := f.NumBusyLinks(); got != 0 {
		t.Fatalf("%d links still busy after teardown", got)
	}
}

// checkOccupiedBits recounts both levels of the occupied-VC bitmap against
// model: a word holds exactly the model's VCs, a summary bit is set exactly
// over a non-zero word, and NumOccupied and the iterator agree with the
// model's size and order.
func checkOccupiedBits(t *testing.T, f *Fabric, model map[VCID]bool, when string) {
	t.Helper()
	words, summary := f.OccupiedBits()
	for w, got := range words {
		var want uint64
		for vc := w << 6; vc < min(w<<6+64, len(f.VCs)); vc++ {
			if model[VCID(vc)] {
				want |= 1 << (vc & 63)
			}
		}
		if got != want {
			t.Fatalf("%s: occupied word %d = %#x, model %#x", when, w, got, want)
		}
		if sum := summary[w>>6]>>(w&63)&1 != 0; sum != (want != 0) {
			t.Fatalf("%s: summary bit %d = %v over word %#x", when, w, sum, want)
		}
	}
	if n := f.NumOccupied(); n != len(model) {
		t.Fatalf("%s: NumOccupied = %d, model holds %d", when, n, len(model))
	}
	prev, n := -1, 0
	for it := f.OccupiedWords(); ; {
		w, word, ok := it.Next()
		if !ok {
			break
		}
		for ; word != 0; word &= word - 1 {
			vc := w<<6 + bits.TrailingZeros64(word)
			if vc <= prev || !model[VCID(vc)] {
				t.Fatalf("%s: iterator yielded VC %d after %d (in model: %v)", when, vc, prev, model[VCID(vc)])
			}
			prev = vc
			n++
		}
	}
	if n != len(model) {
		t.Fatalf("%s: iterator yielded %d VCs, model holds %d", when, n, len(model))
	}
}

// checkBusyLinkWords holds the busy-link iterator to a link-by-link recount:
// it must yield exactly the links with an occupied VC, ascending, never an
// empty word, and NumBusyLinks must agree.
func checkBusyLinkWords(t *testing.T, f *Fabric) {
	t.Helper()
	var got []LinkID
	for it := f.BusyLinkWords(); ; {
		w, word, ok := it.Next()
		if !ok {
			break
		}
		if word == 0 {
			t.Fatalf("iterator yielded empty word %d", w)
		}
		for ; word != 0; word &= word - 1 {
			got = append(got, LinkID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	var want []LinkID
	for l := range f.Links {
		if f.BusyVCs(LinkID(l)) > 0 {
			want = append(want, LinkID(l))
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("busy links %v, recount %v", got, want)
	}
	if n := f.NumBusyLinks(); n != len(want) {
		t.Fatalf("NumBusyLinks = %d, recount %d", n, len(want))
	}
}
