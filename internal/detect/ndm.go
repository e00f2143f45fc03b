package detect

import (
	"fmt"
	"math/bits"

	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/trace"
)

// PromotionPolicy selects how a router re-arms detection when an I flag is
// reset (a message advanced across a previously inactive output channel),
// the Figure 5 situation: some waiting message must become eligible to
// detect the next deadlock through the new root.
type PromotionPolicy uint8

// Promotion policies.
const (
	// PromoteAll is the paper's "simple implementation": when any I flag in
	// a router is reset, every G/P flag in that router currently at P is
	// changed to G. The paper notes this may slightly increase false
	// detections relative to a more selective change.
	PromoteAll PromotionPolicy = iota
	// PromoteWaiting is the selective variant the paper leaves as future
	// work: only input channels holding a blocked header that was actually
	// waiting for the output channel whose I flag was reset are promoted.
	PromoteWaiting
)

func (p PromotionPolicy) String() string {
	if p == PromoteWaiting {
		return "selective"
	}
	return "all"
}

// NDM is the paper's new deadlock detection mechanism (Section 3).
//
// Hardware per physical output channel (Figure 6): an inactivity counter
// (incremented each cycle the channel is idle while at least one of its
// virtual channels is occupied, reset when a flit is transmitted) compared
// against two thresholds, t1 << t2: the I and DT flags are those comparators'
// outputs, counter > t1 and counter > t2, read off the counter, not stored.
//
// Hardware per physical input channel: a one-bit G/P flag. G means the
// blocked message that last arrived on this channel observed activity on
// some feasible output — it is waiting on the (possible) root of the tree
// of blocked messages and is therefore the one that should detect a
// deadlock. P suppresses detection.
type NDM struct {
	f *router.Fabric

	// T1 and T2 are the two thresholds; T1 is 1 cycle in the paper, T2 is
	// the tunable detection threshold swept in the evaluation.
	T1, T2 int64
	// Promotion selects the P->G re-arming policy.
	Promotion PromotionPolicy

	counter []int64 // per link; only monitored links are maintained
	// Bit i of gpm[node] is G on input channel inputs[node][i]; inPos[l] is
	// that bit's node<<6 | i, -1 for a link with no G/P flag.
	gpm   []uint64
	inPos []int32
	// Live flag occupancy, maintained incrementally so FlagCounts is O(1).
	iBusy  int // output channels with the I flag set
	dtBusy int // output channels with the DT flag set
	gBusy  int // input channels currently at G

	inputs [][]router.LinkID // per node: input channels of its router

	candBuf []router.LinkID // scratch for selective promotion
	idle    idleScan        // EndCycle's counting pass

	tr *trace.Recorder // flight recorder; nil-safe
}

// NewNDM builds the mechanism over fabric f with the paper's t1 = 1 and the
// given t2 threshold.
func NewNDM(f *router.Fabric, t2 int64) *NDM {
	return NewNDMOpt(f, 1, t2, PromoteAll)
}

// NewNDMOpt builds the mechanism with explicit thresholds and promotion
// policy.
func NewNDMOpt(f *router.Fabric, t1, t2 int64, promotion PromotionPolicy) *NDM {
	if t1 < 1 || t2 < t1 {
		panic("detect: NDM requires 1 <= t1 <= t2")
	}
	inputs, inPos := inputLinksByNode(f)
	return &NDM{
		f:         f,
		T1:        t1,
		T2:        t2,
		Promotion: promotion,
		counter:   make([]int64, f.NumLinks()),
		gpm:       make([]uint64, len(inputs)),
		inPos:     inPos,
		inputs:    inputs,
		idle:      newIdleScan(f),
	}
}

// Name implements Detector.
func (d *NDM) Name() string {
	if d.Promotion == PromoteAll && d.T1 == 1 {
		return fmt.Sprintf("ndm(t2=%d)", d.T2)
	}
	return fmt.Sprintf("ndm(t1=%d,t2=%d,promote=%s)", d.T1, d.T2, d.Promotion)
}

// Capabilities implements Detector: NDM traces its flag transitions,
// reports all three flag classes, is encodable and snapshots its state.
func (d *NDM) Capabilities() Capabilities {
	return Capabilities{SetTracer: d.SetTracer, FlagCounts: d.FlagCounts, AppendState: d.AppendState,
		Audit: d.Audit, Snapshot: d.Snapshot, Restore: d.Restore}
}

// SetTracer reports flag transitions to tr (see Capabilities.SetTracer).
func (d *NDM) SetTracer(tr *trace.Recorder) { d.tr = tr }

// FlagCounts is the live occupancy of the I, DT and G flags (see
// Capabilities.FlagCounts).
func (d *NDM) FlagCounts() (iFlags, dtFlags, gFlags int) {
	return d.iBusy, d.dtBusy, d.gBusy
}

// IFlagSet reports the I flag of link l (exported for tests and scenario
// reconstruction).
func (d *NDM) IFlagSet(l router.LinkID) bool { return d.counter[l] > d.T1 }

// DTFlagSet reports the DT flag of link l.
func (d *NDM) DTFlagSet(l router.LinkID) bool { return d.counter[l] > d.T2 }

// GPIsGenerate reports whether input channel l currently holds G.
func (d *NDM) GPIsGenerate(l router.LinkID) bool {
	p := d.inPos[l]
	return p >= 0 && d.gpm[p>>6]>>(p&63)&1 != 0
}

// AppendState is NDM's Capabilities.AppendState: per link, the inactivity counter clamped
// just past T2 (beyond which increments are inert — both flags are already
// set and only a transmission resets them) and the I/DT/G-P flag bits. The
// clamp keeps the encoding finite across arbitrarily long inactive
// stretches without conflating any two behaviorally distinct states.
func (d *NDM) AppendState(buf []byte, _ int64) []byte {
	for l, c := range d.counter {
		var flags byte
		if c > d.T1 {
			flags |= 1
		}
		if c > d.T2 {
			c = d.T2 + 1
			flags |= 2
		}
		if d.GPIsGenerate(router.LinkID(l)) {
			flags |= 4
		}
		buf = append(buf, byte(c), byte(c>>8), flags)
	}
	return buf
}

// Snapshot is NDM's Capabilities.Snapshot: per link, the exact inactivity
// counter and the G/P flag (false on a link that is no input channel).
func (d *NDM) Snapshot(dst []byte) []byte {
	dst = snap.I64s(dst, d.counter)
	for l := range d.counter {
		dst = snap.Bool(dst, d.GPIsGenerate(router.LinkID(l)))
	}
	return dst
}

// Restore is NDM's Capabilities.Restore: counters and G/P flags are read, the
// three flag counts re-derived from them. G on a link that is no router's
// input channel is refused: it has no G/P flag to hold it.
func (d *NDM) Restore(src []byte) error {
	r := snap.NewReader(src)
	restoreCounters(&r, d.counter)
	gp := r.Bytes(len(d.counter))
	if gp == nil {
		return r.Err()
	}
	clear(d.gpm)
	for l, g := range gp {
		switch p := d.inPos[l]; {
		case g > 1:
			r.Failf("detect: snapshot holds G/P flag byte %d for link %d", g, l)
		case g == 1 && p < 0:
			r.Failf("detect: snapshot holds G on link %d, which is no router's input channel", l)
		case g == 1:
			d.gpm[p>>6] |= 1 << (p & 63)
		}
	}
	d.iBusy, d.dtBusy, d.gBusy = d.recount()
	return r.Done()
}

// recount counts the I, DT and G flags anew, off the counters and G words.
func (d *NDM) recount() (i, dt, g int) {
	for _, w := range d.gpm {
		g += bits.OnesCount64(w)
	}
	return countPast(d.counter, d.T1), countPast(d.counter, d.T2), g
}

// Audit is NDM's Capabilities.Audit: no counter is negative, and the three
// cached flag counts equal recounts of the counters past t1 and t2 and of the
// G bits.
func (d *NDM) Audit() error {
	for l, c := range d.counter {
		if c < 0 {
			return fmt.Errorf("detect: ndm link %d: negative inactivity counter %d", l, c)
		}
	}
	if i, dt, g := d.recount(); i != d.iBusy || dt != d.dtBusy || g != d.gBusy {
		return fmt.Errorf("detect: ndm flag counts I/DT/G %d/%d/%d, recount %d/%d/%d",
			d.iBusy, d.dtBusy, d.gBusy, i, dt, g)
	}
	return nil
}

// RouteFailed implements Detector.
func (d *NDM) RouteFailed(m *router.Message, in router.LinkID, outs []router.LinkID, first bool, now int64) bool {
	if first {
		// First unsuccessful attempt: decide whether this message is the
		// first of a branch in the tree of blocked messages.
		if !d.f.AllVCsBusy(in) {
			// Some VC of the input channel is still free: this message is
			// not the latest arrival and cannot close a cycle yet.
			d.setP(in, m.ID, trace.PReasonNotLastArrival)
			return false
		}
		for _, o := range outs {
			if d.counter[o] <= d.T1 {
				// Some requested channel is still active (I clear): the
				// advancing message could be the root of the tree. If it
				// later blocks, this message must detect.
				d.setG(in, m.ID, trace.GRuleFirstAttempt, o)
				return false
			}
		}
		// Every requested channel is already inactive: some other message
		// blocked first and owns detection.
		d.setP(in, m.ID, trace.PReasonAllInactive)
		return false
	}

	// Successive attempts: detect only if the long-term threshold has been
	// exceeded (DT set) on every feasible output and this message is a
	// branch head.
	if !d.GPIsGenerate(in) {
		return false
	}
	for _, o := range outs {
		if d.counter[o] <= d.T2 {
			return false
		}
	}
	return true
}

// RouteSucceeded implements Detector. A message that was occupying the
// input channel routes: the last arrival on that channel is no longer
// waiting on the root, so the flag returns to P.
func (d *NDM) RouteSucceeded(m *router.Message, in router.LinkID) {
	d.setP(in, m.ID, trace.PReasonRouteOK)
}

// VCFreed implements Detector. Freeing a virtual channel of an input
// physical channel resets its G/P flag to P, exactly like a successful
// routing.
func (d *NDM) VCFreed(l router.LinkID) {
	d.setP(l, router.NilMsg, trace.PReasonVCFreed)
}

// setG raises input channel in to G, tracing the transition with the rule
// that fired and the witness output channel. A link that is no input channel
// has no G/P flag and is left alone.
func (d *NDM) setG(in router.LinkID, msg router.MsgID, rule int64, out router.LinkID) {
	p := d.inPos[in]
	if p < 0 || d.gpm[p>>6]>>(p&63)&1 != 0 {
		return
	}
	d.gpm[p>>6] |= 1 << (p & 63)
	d.gBusy++
	d.tr.Emit(trace.KindGSet, msg, in, p>>6, rule, int32(out))
}

// setP lowers input channel in to P, tracing the transition with its reason.
func (d *NDM) setP(in router.LinkID, msg router.MsgID, reason int64) {
	p := d.inPos[in]
	if p < 0 || d.gpm[p>>6]>>(p&63)&1 == 0 {
		return
	}
	d.gpm[p>>6] &^= 1 << (p & 63)
	d.gBusy--
	d.tr.Emit(trace.KindPSet, msg, in, p>>6, reason, -1)
}

// EndCycle implements Detector: the counter/flag hardware of Figure 6.
//
// Transmitted channels reset their counter and flags; occupied idle
// channels count up; completely empty channels freeze — their flags are NOT
// cleared, because per Figure 6 they reset only on transmission. The freeze
// is what makes the Figure 5 case work: a stale I flag left by a drained
// message is reset by the first flit of the next message to use the
// channel, and that reset promotes the messages waiting on it from P to G.
func (d *NDM) EndCycle(_ int64, txLinks []router.LinkID) {
	d.reset(txLinks)
	// The counter is "only incremented if at least one virtual channel is
	// occupied", so the busy links cover every counting channel.
	d.idle.advance(txLinks, d.counter, d.T1+1, d.T2+1, d.raise)
}

// reset zeroes the counter, and so clears the flags, of every channel a flit
// crossed this cycle.
func (d *NDM) reset(txLinks []router.LinkID) {
	for _, id := range txLinks {
		if c := d.counter[id]; c > d.T1 {
			// An I flag is being reset because a message advanced: re-arm
			// waiting messages in this router (Figure 5).
			d.promote(id)
			d.iBusy--
			d.tr.Emit(trace.KindIClear, router.NilMsg, id, -1, 0, -1)
			if c > d.T2 {
				d.dtBusy--
				d.tr.Emit(trace.KindDTClear, router.NilMsg, id, -1, 0, -1)
			}
		}
		d.counter[id] = 0
	}
}

// raise sets the flags idle channel l's counter has just reached: I at t1+1,
// DT at t2+1, I first when the two are equal.
func (d *NDM) raise(l router.LinkID, c int64) {
	if c == d.T1+1 {
		d.iBusy++
		d.tr.Emit(trace.KindISet, router.NilMsg, l, -1, 0, -1)
	}
	if c == d.T2+1 {
		d.dtBusy++
		d.tr.Emit(trace.KindDTSet, router.NilMsg, l, -1, 0, -1)
	}
}

// promote re-arms G/P flags in the router owning output channel out after
// its I flag was reset. Under PromoteAll every P flag of the router turns G
// at once, one word operation; the KindGSet events then go out in input
// order, only when a recorder is attached.
func (d *NDM) promote(out router.LinkID) {
	node := d.f.Links[out].Src
	if node < 0 {
		return
	}
	inputs := d.inputs[node]
	if d.Promotion == PromoteWaiting {
		for _, in := range inputs {
			if !d.GPIsGenerate(in) && d.waitingOn(in, out, int(node)) {
				d.setG(in, router.NilMsg, trace.GRulePromotion, out)
			}
		}
		return
	}
	raised := (uint64(1)<<len(inputs) - 1) &^ d.gpm[node]
	d.gpm[node] |= raised
	d.gBusy += bits.OnesCount64(raised)
	for ; d.tr != nil && raised != 0; raised &= raised - 1 {
		d.tr.Emit(trace.KindGSet, router.NilMsg, inputs[bits.TrailingZeros64(raised)], node,
			trace.GRulePromotion, int32(out))
	}
}

// waitingOn reports whether input channel in holds a blocked header whose
// feasible outputs at node include out.
func (d *NDM) waitingOn(in, out router.LinkID, node int) bool {
	link := &d.f.Links[in]
	for v := int32(0); v < link.NumVC; v++ {
		vc := link.FirstVC + router.VCID(v)
		if !d.f.HeaderBlocked(vc) {
			continue
		}
		m := d.f.Msg(d.f.VCs[vc].Occupant)
		d.candBuf = d.f.Candidates(m, node, d.candBuf[:0])
		for _, c := range d.candBuf {
			if c == out {
				return true
			}
		}
	}
	return false
}
