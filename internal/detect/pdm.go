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
// threshold and reset on transmission.
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
	ifFlag  []bool
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
		ifFlag:    make([]bool, f.NumLinks()),
		idle:      newIdleScan(f),
	}
}

// Name implements Detector.
func (d *PDM) Name() string { return fmt.Sprintf("pdm(th=%d)", d.Threshold) }

// Capabilities implements Detector: the same report as NDM's, with the I
// and G flag classes PDM does not have reading zero.
func (d *PDM) Capabilities() Capabilities {
	return Capabilities{SetTracer: d.SetTracer, FlagCounts: d.FlagCounts, AppendState: d.AppendState,
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
func (d *PDM) InactivitySet(l router.LinkID) bool { return d.ifFlag[l] }

// AppendState is PDM's Capabilities.AppendState: per link, the inactivity counter clamped
// just past the threshold (beyond which increments are inert — the flag is
// already set and only a transmission resets it) and the IF flag bit.
func (d *PDM) AppendState(buf []byte, _ int64) []byte {
	for l := range d.counter {
		c := d.counter[l]
		if c > d.Threshold {
			c = d.Threshold + 1
		}
		var bit byte
		if d.ifFlag[l] {
			bit = 1
		}
		buf = append(buf, byte(c), byte(c>>8), bit)
	}
	return buf
}

// Snapshot is PDM's Capabilities.Snapshot: the exact inactivity counter of
// every link. The inactivity flag is the counter compared with the threshold
// (Audit's invariant), so it is not written.
func (d *PDM) Snapshot(dst []byte) []byte {
	return snap.I64s(dst, d.counter)
}

// Restore is PDM's Capabilities.Restore: counters are read, the flags and
// their count re-derived.
func (d *PDM) Restore(src []byte) error {
	r := snap.NewReader(src)
	restoreCounters(&r, d.counter)
	d.ifBusy = 0
	for l, c := range d.counter {
		d.ifFlag[l] = c > d.Threshold
		d.ifBusy += count01(d.ifFlag[l])
	}
	return r.Done()
}

// Audit is PDM's Capabilities.Audit: on every link the inactivity flag is
// exactly "counter past the threshold", and the cached count equals a
// recount.
func (d *PDM) Audit() error {
	set := 0
	for l, c := range d.counter {
		if d.ifFlag[l] != (c > d.Threshold) {
			return fmt.Errorf("detect: pdm link %d: counter %d (threshold %d) with IF=%v",
				l, c, d.Threshold, d.ifFlag[l])
		}
		if d.ifFlag[l] {
			set++
		}
	}
	if set != d.ifBusy {
		return fmt.Errorf("detect: pdm flag count %d, recount %d", d.ifBusy, set)
	}
	return nil
}

// RouteFailed implements Detector. PDM checks on every unsuccessful
// attempt, including the first.
func (d *PDM) RouteFailed(_ *router.Message, _ router.LinkID, outs []router.LinkID, _ bool, _ int64) bool {
	for _, o := range outs {
		if !d.ifFlag[o] {
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
func (d *PDM) EndCycle(_ int64, txLinks []router.LinkID, _ []bool) {
	d.reset(txLinks)
	d.idle.each(txLinks, d.count)
}

// reset zeroes the counter and clears the flag of every channel a flit
// crossed this cycle.
func (d *PDM) reset(txLinks []router.LinkID) {
	for _, id := range txLinks {
		d.counter[id] = 0
		if d.ifFlag[id] {
			d.ifFlag[id] = false
			d.ifBusy--
			d.tr.Emit(trace.KindDTClear, router.NilMsg, id, -1, 0, -1)
		}
	}
}

// count advances idle channel id's counter by one cycle and raises its
// inactivity flag when it crosses the threshold.
func (d *PDM) count(id router.LinkID) {
	l := int(id)
	d.counter[l]++
	if d.counter[l] > d.Threshold && !d.ifFlag[l] {
		d.ifFlag[l] = true
		d.ifBusy++
		d.tr.Emit(trace.KindDTSet, router.NilMsg, id, -1, 0, -1)
	}
}
