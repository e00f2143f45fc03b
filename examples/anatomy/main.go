// Anatomy of a detection: a step-by-step walkthrough of Figures 2-5 of the
// paper on a ring of eight unidirectional channels, driving the real NDM
// hardware model directly (this example reaches below the public API into
// the building blocks, which live in the same module).
//
// The story:
//
//	Figure 2 — messages B, C, D pile up behind the advancing message A.
//	           Nothing is deadlocked; NDM detects nothing. (The previous
//	           mechanism would have falsely detected C and D.)
//	Figure 3 — A drains away; E takes its channel and then blocks on D's
//	           channel, closing the cycle B -> E -> D -> C -> B.
//	Figure 4 — B, the one message holding a G flag, detects the deadlock;
//	           recovery absorbs it.
//	Figure 5 — F grabs B's freed channel and re-closes the cycle. The
//	           transmission of F's first flit resets a stale I flag, which
//	           promotes C from P to G — and C detects the new deadlock.
//
// Run with:
//
//	go run ./examples/anatomy
package main

import (
	"fmt"
	"log"

	"wormnet/internal/detect"
	"wormnet/internal/router"
	"wormnet/internal/topology"
)

// world wraps a ring fabric, the NDM detector and a tiny event loop.
type world struct {
	f        *router.Fabric
	ndm      *detect.NDM
	now      int64
	attempts map[router.MsgID]int
	names    map[router.MsgID]string
}

func newWorld() *world {
	rc := router.DefaultConfig() // the paper's 4-flit buffers, on a single-VC ring
	rc.VCsPerLink, rc.InjPorts, rc.DelPorts = 1, 1, 1
	f, err := router.NewFabric(topology.New(8, 1), rc)
	if err != nil {
		log.Fatal(err)
	}
	return &world{
		f:        f,
		ndm:      detect.NewNDM(f, 16),
		attempts: map[router.MsgID]int{},
		names:    map[router.MsgID]string{},
	}
}

// c returns the ring channel i -> i+1.
func (w *world) c(i int) router.LinkID { return w.f.NetLink(i, 0) }

// place puts a named 16-flit message on channel l, header blocked at the
// downstream router.
func (w *world) place(name string, l router.LinkID) *router.Message {
	m := w.f.NewMessage(int(w.f.Links[l].Src), (int(w.f.Links[l].Dst)+3)%8, 16, w.now)
	m.Phase = router.PhaseNetwork
	vc := w.f.Links[l].FirstVC
	w.f.Allocate(m, router.NilVC, vc)
	m.HeadVC = vc
	w.f.VCs[vc].Flits = 16
	w.f.VCs[vc].HasHeader = true
	w.f.VCs[vc].HasTail = true
	w.names[m.ID] = name
	return m
}

// leave drains a message off its channel (tail passed or recovery absorbed
// it).
func (w *world) leave(m *router.Message) {
	vc := m.HeadVC
	l := w.f.LinkOfVC(vc)
	w.f.VCs[vc].Flits = 0
	w.f.ReleaseEmptyVC(vc)
	m.HeadVC = router.NilVC
	w.ndm.VCFreed(l)
	delete(w.attempts, m.ID)
}

type attempt struct {
	m    *router.Message
	in   router.LinkID
	outs []router.LinkID
}

// cycle advances one clock: tx lists channels that transmitted a flit;
// every attempt is a blocked message re-trying its routing. Marked
// messages are reported.
func (w *world) cycle(tx []router.LinkID, atts ...attempt) []string {
	w.ndm.EndCycle(w.now, tx)
	var marked []string
	for _, a := range atts {
		first := w.attempts[a.m.ID] == 0
		w.attempts[a.m.ID]++
		if w.ndm.RouteFailed(a.m, a.in, a.outs, first, w.now) {
			marked = append(marked, w.names[a.m.ID])
		}
	}
	w.now++
	return marked
}

func (w *world) gp(l router.LinkID) string {
	if w.ndm.GPIsGenerate(l) {
		return "G"
	}
	return "P"
}

func main() {
	w := newWorld()

	fmt.Println("== Figure 2: blocked but not deadlocked ==")
	mA := w.place("A", w.c(3))
	mB := w.place("B", w.c(2))
	mC := w.place("C", w.c(1))
	mD := w.place("D", w.c(0))
	attB := attempt{mB, w.c(2), []router.LinkID{w.c(3)}}
	attC := attempt{mC, w.c(1), []router.LinkID{w.c(2)}}
	attD := attempt{mD, w.c(0), []router.LinkID{w.c(1)}}

	for i := 0; i < 30; i++ {
		atts := []attempt{attB}
		if i >= 3 {
			atts = append(atts, attC)
		}
		if i >= 6 {
			atts = append(atts, attD)
		}
		if marked := w.cycle([]router.LinkID{w.c(3)}, atts...); len(marked) > 0 {
			log.Fatalf("unexpected detection: %v", marked)
		}
	}
	fmt.Printf("after 30 cycles with A advancing: no detections.\n")
	fmt.Printf("G/P flags: B=%s (saw activity: eligible), C=%s, D=%s (arrived behind blocked messages)\n\n",
		w.gp(w.c(2)), w.gp(w.c(1)), w.gp(w.c(0)))

	fmt.Println("== Figure 3: A leaves, E closes a true deadlock ==")
	w.cycle([]router.LinkID{w.c(3)}, attB, attC, attD)
	w.leave(mA)
	mE := w.place("E", w.c(3))
	w.cycle([]router.LinkID{w.c(3)}, attC, attD) // E's flits arrive over c3
	w.cycle([]router.LinkID{w.c(3)}, attB, attC, attD)
	attE := attempt{mE, w.c(3), []router.LinkID{w.c(0)}}
	fmt.Printf("E now blocks requesting D's channel: cycle B->E->D->C->B is closed.\n")
	fmt.Printf("E's first failed attempt sees I set on c0 (D long blocked): E gets %s.\n\n", w.gp(w.c(3)))

	fmt.Println("== Figure 4: exactly one message detects ==")
	var detected []string
	for i := 0; i < 40 && len(detected) == 0; i++ {
		detected = w.cycle(nil, attB, attC, attD, attE)
	}
	fmt.Printf("after threshold t2=16 expires, detected: %v (B was the branch head)\n", detected)
	fmt.Printf("recovery absorbs B, freeing its channel c2.\n\n")
	w.leave(mB)

	fmt.Println("== Figure 5: F re-closes the cycle; the I-flag reset re-arms C ==")
	w.cycle(nil, attC, attD, attE)
	fmt.Printf("before F arrives: C holds %s, I flag on c2 is still set (stale) = %v\n",
		w.gp(w.c(1)), w.ndm.IFlagSet(w.c(2)))
	mF := w.place("F", w.c(2))
	w.cycle([]router.LinkID{w.c(2)}, attC, attD, attE)
	fmt.Printf("F's first flit crosses c2, resetting I: C promoted to %s\n", w.gp(w.c(1)))
	attF := attempt{mF, w.c(2), []router.LinkID{w.c(3)}}
	detected = nil
	for i := 0; i < 40 && len(detected) == 0; i++ {
		detected = w.cycle(nil, attC, attD, attE, attF)
	}
	fmt.Printf("second deadlock detected by: %v\n", detected)
}
