package detect

import (
	"fmt"

	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/trace"
)

// PDM is the previously proposed detection mechanism summarized in Section
// 2 of the paper (from Martínez, López, Duato and Pinkston, ICPP 1997).
//
// Hardware per physical output channel (Figure 1): a counter incremented
// every clock cycle and reset whenever a flit is transmitted across the
// channel, so it holds the number of cycles since the last transmission. A
// one-bit inactivity flag (IF) is set when the counter exceeds the
// threshold and reset on transmission: it is the comparator's output,
// counter > threshold, so it is read off the counter rather than stored.
//
// Every time a blocked message is routed unsuccessfully, the IFs of all its
// feasible output channels are checked; if all are set, the message is
// presumed deadlocked. Unlike NDM there is no root tracking: every message
// in a blocked cycle eventually marks itself, and the threshold needed to
// avoid false detection grows with message length.
type PDM struct {
	f *router.Fabric

	// Threshold is the inactivity threshold in cycles.
	Threshold int64

	counter []int64
	ifBusy  int      // number of links with the inactivity flag set
	idle    idleScan // EndCycle's counting pass

	tr *trace.Recorder // flight recorder; nil-safe
}

// NewPDM builds the mechanism over fabric f with the given threshold.
func NewPDM(f *router.Fabric, threshold int64) *PDM {
	if threshold < 1 {
		panic("detect: PDM requires threshold >= 1")
	}
	return &PDM{
		f:         f,
		Threshold: threshold,
		counter:   make([]int64, f.NumLinks()),
		idle:      newIdleScan(f),
	}
}

// Name implements Detector.
func (d *PDM) Name() string { return fmt.Sprintf("pdm(th=%d)", d.Threshold) }

// Capabilities implements Detector: the same report as NDM's, with the I
// and G flag classes PDM does not have reading zero.
func (d *PDM) Capabilities() Capabilities {
	return Capabilities{SetTracer: d.SetTracer, FlagCounts: d.FlagCounts,
		Audit: d.Audit, Snapshot: d.Snapshot, Restore: d.Restore}
}

// SetTracer attaches the flight recorder. PDM's single inactivity flag is
// its detection threshold, so transitions are reported as DT set/clear
// events.
func (d *PDM) SetTracer(tr *trace.Recorder) { d.tr = tr }

// FlagCounts reports PDM's single inactivity flag as DT (it is the detection
// threshold); PDM has no I or G/P hardware.
func (d *PDM) FlagCounts() (iFlags, dtFlags, gFlags int) {
	return 0, d.ifBusy, 0
}

// InactivitySet reports the IF flag of link l (exported for tests).
func (d *PDM) InactivitySet(l router.LinkID) bool { return d.counter[l] > d.Threshold }

// Snapshot is PDM's Capabilities.Snapshot: the inactivity counter of every
// link (the inactivity flag is the counter compared with the threshold). In
// canonical mode a counter is clamped just past the threshold: beyond it
// increments are inert — the flag is set, and only a transmission resets it.
func (d *PDM) Snapshot(dst []byte, m snap.Mode) []byte {
	if m.Canonical {
		return appendClamped(dst, d.counter, d.Threshold)
	}
	return snap.I64s(dst, d.counter)
}

// Restore is PDM's Capabilities.Restore: counters are read, the flag count
// re-derived.
func (d *PDM) Restore(src []byte) error {
	r := snap.NewReader(src)
	restoreCounters(&r, d.counter)
	d.ifBusy = countPast(d.counter, d.Threshold)
	return r.Done()
}

// Audit is PDM's Capabilities.Audit: no counter is negative, and the cached
// flag count equals a recount of the counters past the threshold.
func (d *PDM) Audit() error {
	for l, c := range d.counter {
		if c < 0 {
			return fmt.Errorf("detect: pdm link %d: negative inactivity counter %d", l, c)
		}
	}
	if set := countPast(d.counter, d.Threshold); set != d.ifBusy {
		return fmt.Errorf("detect: pdm flag count %d, recount %d", d.ifBusy, set)
	}
	return nil
}

// RouteFailed implements Detector. PDM checks on every unsuccessful
// attempt, including the first.
func (d *PDM) RouteFailed(_ *router.Message, _ router.LinkID, outs []router.LinkID, _ bool, _ int64) bool {
	for _, o := range outs {
		if d.counter[o] <= d.Threshold {
			return false
		}
	}
	return true
}

// RouteSucceeded implements Detector.
func (d *PDM) RouteSucceeded(*router.Message, router.LinkID) {}

// VCFreed implements Detector.
func (d *PDM) VCFreed(router.LinkID) {}

// EndCycle implements Detector: the counter hardware of Figure 1. Only
// occupied channels count; an empty channel's counter freezes. (Figure 1's
// counter free-runs even on empty channels, but its value is only ever
// consulted while the channel is fully busy, and any occupancy implies a
// recent transmission that reset it, so the observable behavior is
// identical.)
func (d *PDM) EndCycle(_ int64, txLinks []router.LinkID) {
	d.reset(txLinks)
	d.idle.advance(txLinks, d.counter, d.Threshold+1, d.Threshold+1, d.raise)
}

// reset zeroes the counter, and so clears the flag, of every channel a flit
// crossed this cycle.
func (d *PDM) reset(txLinks []router.LinkID) {
	for _, id := range txLinks {
		if d.counter[id] > d.Threshold {
			d.ifBusy--
			d.tr.Emit(trace.KindDTClear, router.NilMsg, id, -1, 0, -1)
		}
		d.counter[id] = 0
	}
}

// raise sets the inactivity flag idle channel l's counter has just reached.
func (d *PDM) raise(l router.LinkID, _ int64) {
	d.ifBusy++
	d.tr.Emit(trace.KindDTSet, router.NilMsg, l, -1, 0, -1)
}
