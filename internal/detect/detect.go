// Package detect implements the distributed deadlock detection mechanisms
// compared in the paper:
//
//   - NDM — the paper's contribution (Section 3): per-output-channel
//     inactivity counters with two thresholds (t1 setting the I flag, t2
//     setting the DT flag) plus a per-input-channel Generate/Propagate flag
//     that confines detection to the message waiting on the root of the
//     tree of blocked messages.
//   - PDM — the previous mechanism (Section 2, from Martínez et al.
//     ICPP'97): a single per-output-channel inactivity threshold; a blocked
//     message is marked when every feasible output channel has been
//     inactive past the threshold.
//   - Crude timeouts — source-age (Reeves et al.), source-stall
//     (compressionless routing, Kim/Liu/Chien) and header-blocked (Disha)
//     heuristics, for baseline comparison.
//
// All mechanisms are distributed and use only information local to one
// router, as the paper requires. The simulation engine feeds them routing
// and flow-control events and, once per cycle, the list of channels a flit
// crossed.
package detect

import (
	"math/bits"

	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
)

// Detector observes one simulated network and decides which blocked
// messages to mark as deadlocked. Implementations are not safe for
// concurrent use; each Engine owns one Detector.
type Detector interface {
	// Name identifies the mechanism in reports (e.g. "ndm(t2=32)").
	Name() string

	// RouteFailed is invoked when message m's header fails a routing
	// attempt at the router reached through input channel in. outs lists
	// the feasible output physical channels (all of whose virtual channels
	// are necessarily busy, or routing would have succeeded). first is true
	// on the first failed attempt since the header arrived at this router.
	// It returns true if the mechanism marks m as deadlocked, which
	// triggers recovery.
	RouteFailed(m *router.Message, in router.LinkID, outs []router.LinkID, first bool, now int64) bool

	// RouteSucceeded is invoked when a message whose header arrived through
	// input channel in is successfully routed.
	RouteSucceeded(m *router.Message, in router.LinkID)

	// VCFreed is invoked when a virtual channel of physical channel l is
	// released (a tail passed, or recovery released the worm).
	VCFreed(l router.LinkID)

	// EndCycle is invoked once per cycle after all flit movement. txLinks
	// lists every physical channel a flit was transmitted across this cycle,
	// each at most once, in the engine's arbitration order. It is a scratch
	// buffer owned by the engine and reused every cycle: implementations must
	// not retain it past the call. txLinks is empty on a quiescent cycle —
	// no flit moved anywhere — and implementations must keep their
	// inactivity counters running across arbitrarily long quiescent
	// stretches (the fabric's busy-link bitmap gives them the channels to
	// count; the engine separately relies on quiescence to short-circuit its
	// deadlock oracle, so EndCycle must not mutate fabric state).
	EndCycle(now int64, txLinks []router.LinkID)

	// Capabilities reports, once, what the mechanism offers beyond the four
	// events above. The engine calls it right after construction.
	Capabilities() Capabilities
}

// Capabilities is the report a detector hands over once, right after
// construction, naming everything it offers beyond the four events. A nil
// field means the mechanism has nothing of that kind; the zero value is a
// detector that only marks. The engine reads the report at one site
// (sim.New) and every other consumer reads the engine's copy.
type Capabilities struct {
	// SetTracer attaches the flight recorder the detector reports its
	// internal flag transitions and probe events to. The recorder may be nil
	// (trace.Recorder methods are nil-safe).
	SetTracer func(*trace.Recorder)
	// FlagCounts reports the live occupancy of the detection flags: output
	// channels with the short-term inactivity (I) flag set, output channels
	// with the detection-threshold (DT) flag set, and input channels holding
	// G. A mechanism without a flag class reports zero for it (PDM's single
	// inactivity flag maps onto DT). The counts are maintained
	// incrementally, so sampling is O(1). The engine adds the DT count to
	// its whole-run counters once per cycle, right after EndCycle, so DT
	// flags must change only inside EndCycle.
	FlagCounts func() (iFlags, dtFlags, gFlags int)
	// ProbeTotals snapshots the cumulative control-message activity of a
	// probe-based (edge-chasing) detector; the engine reads it once per
	// cycle, after EndCycle, into its whole-run counters.
	ProbeTotals func() ProbeTotals
	// AppendState folds the detector's internal state into the model
	// checker's canonical state encoding (internal/mc). Two detector states
	// with equal encodings must behave identically under identical future
	// event sequences. Unbounded values (inactivity counters, ages derived
	// from now) must be clamped at the point past their largest behavioral
	// threshold so the encoding stays finite; absolute cycle numbers must
	// never be encoded directly.
	AppendState func(buf []byte, now int64) []byte
	// Audit re-derives the mechanism's redundant state — cached flag counts
	// from the counters and flags they count — and reports the first
	// disagreement. It is the detector's share of the per-cycle Config.Debug
	// audits, and the model checker asserts it in every state it explores.
	Audit func() error
	// Snapshot appends everything the mechanism would need to carry on from
	// this cycle boundary exactly as it would have — the exact state, not
	// AppendState's clamped canonical form — to dst, and Restore replaces the
	// mechanism's state with such bytes (sim.Engine.Snapshot and Restore).
	// Redundant state (cached counts, dense indexes) is rebuilt by Restore
	// rather than read, so bytes that decode at all decode to a state Audit
	// accepts; input that is truncated or names a link, channel or message
	// outside the fabric is an error, never a panic.
	// A mechanism sets both fields or neither. Leaving them nil declares it
	// stateless: every decision is a function of the event's arguments and
	// the fabric (None, the crude timeouts).
	Snapshot func(dst []byte) []byte
	Restore  func(src []byte) error
}

// ProbeTotals is a snapshot of the cumulative control-message activity of a
// probe-based (edge-chasing) detector. All counters are monotonic totals
// since construction; the engine copies them into its whole-run counters.
type ProbeTotals struct {
	// Emitted counts probes launched by blocked initiators.
	Emitted int64
	// Forwarded counts probe forwardings at blocked headers (each spawned
	// continuation counts once).
	Forwarded int64
	// Dropped counts probes that terminated without returning.
	Dropped int64
	// Returned counts probes that arrived back at a channel held by their
	// own initiator, proving a cycle.
	Returned int64
	// Flits counts control flits charged to physical links: one per
	// link traversal a probe performed (emission, forwarding, and movement
	// along a worm's body all cross exactly one link each).
	Flits int64
	// InFlight is the number of probes currently traversing the fabric
	// (a gauge, not a total).
	InFlight int
}

// passive supplies the events and the (empty) capability report of
// mechanisms that keep no state at all: None and the crude timeouts embed
// it and define only Name and RouteFailed. They are stateless by contract —
// a timeout reads the timers the engine keeps on the message — so the empty
// report's nil Snapshot and Restore are exact.
type passive struct{}

func (passive) RouteSucceeded(*router.Message, router.LinkID) {}
func (passive) VCFreed(router.LinkID)                         {}
func (passive) EndCycle(int64, []router.LinkID)               {}
func (passive) Capabilities() Capabilities                    { return Capabilities{} }

// None is a Detector that never marks anything. It is used to measure raw
// network behavior (including unrecovered deadlocks) and as a baseline in
// tests.
type None struct{ passive }

// Name implements Detector.
func (None) Name() string { return "none" }

// RouteFailed implements Detector.
func (None) RouteFailed(*router.Message, router.LinkID, []router.LinkID, bool, int64) bool {
	return false
}

// idleScan is the counting half of EndCycle, shared by NDM and PDM: it
// advances the inactivity counter of every channel that is occupied,
// monitored and not transmitted across this cycle, straight from the
// fabric's busy-link bitmap, 64 links at a time.
type idleScan struct {
	f *router.Fabric
	// tx is this cycle's transmitted set as a bitmap indexed by LinkID; it is
	// all zero between calls. monitored has a bit for every link that owns a
	// counter (all but the injection ports). One allocation holds both.
	tx, monitored []uint64
}

func newIdleScan(f *router.Fabric) idleScan {
	words := (f.NumLinks() + 63) >> 6
	masks := make([]uint64, 2*words)
	s := idleScan{f: f, tx: masks[:words], monitored: masks[words:]}
	for l := 0; l < f.NumLinks(); l++ {
		if f.IsMonitored(router.LinkID(l)) {
			s.monitored[l>>6] |= 1 << (l & 63)
		}
	}
	return s
}

// advance adds one to counter[l] for every idle channel l and calls raise
// where the new count is lo or hi, the cycle a flag for threshold lo-1 or hi-1
// rises. Links come in ascending order, the bitmap's, so flag events come out
// in link order, traced or not.
//
// The tx mask is set and cleared from txLinks, never from the busy words: a
// delivery channel can receive a tail flit and be drained empty in the same
// cycle, so a transmitted link need not be busy, and a bit left behind by a
// clear that only visited busy words would freeze that link's counter on
// some later cycle.
func (s *idleScan) advance(txLinks []router.LinkID, counter []int64, lo, hi int64, raise func(l router.LinkID, c int64)) {
	for _, l := range txLinks {
		s.tx[l>>6] |= 1 << (l & 63)
	}
	for it := s.f.BusyLinkWords(); ; {
		w, busy, ok := it.Next()
		if !ok {
			break
		}
		for idle := busy &^ s.tx[w] & s.monitored[w]; idle != 0; idle &= idle - 1 {
			l := w<<6 + bits.TrailingZeros64(idle)
			counter[l]++
			if c := counter[l]; c == lo || c == hi {
				raise(router.LinkID(l), c)
			}
		}
	}
	for _, l := range txLinks {
		s.tx[l>>6] = 0
	}
}

// countPast is the number of counters past threshold t: the flags it sets.
func countPast(counter []int64, t int64) (n int) {
	for _, c := range counter {
		if c > t {
			n++
		}
	}
	return n
}

// restoreCounters is the shared first step of NDM's and PDM's Restore: one
// non-negative inactivity counter per link.
func restoreCounters(r *snap.Reader, counter []int64) {
	r.I64s(counter)
	for l, c := range counter {
		if c < 0 {
			r.Failf("detect: snapshot holds inactivity count %d for link %d", c, l)
			return
		}
	}
}

// NDMMaxInputs is the most input channels (network links plus injection
// ports) one router may have under NDM: its G/P flags are one 64-bit word.
const NDMMaxInputs = 64

// inputLinksByNode precomputes, for every node, the physical channels that
// can hold message headers at that node's router: the network links arriving
// from each direction plus the node's injection ports. pos[l] is node<<6 | i
// for inputs[node][i] and -1 for a delivery channel, which is no input.
func inputLinksByNode(f *router.Fabric) (inputs [][]router.LinkID, pos []int32) {
	t := f.Topo
	deg := t.Degree()
	if deg+f.Cfg.InjPorts > NDMMaxInputs {
		panic("detect: NDM's G/P word holds at most 64 input channels per router")
	}
	inputs = make([][]router.LinkID, t.Nodes())
	pos = make([]int32, f.NumLinks())
	for l := range pos {
		pos[l] = -1
	}
	for x := 0; x < t.Nodes(); x++ {
		list := make([]router.LinkID, 0, deg+f.Cfg.InjPorts)
		for d := 0; d < deg; d++ {
			// The link arriving at x from direction d is the neighbor's
			// output link in the opposite direction.
			b := t.Neighbor(x, topology.Direction(d))
			list = append(list, f.NetLink(b, topology.Direction(d).Opposite()))
		}
		for p := 0; p < f.Cfg.InjPorts; p++ {
			list = append(list, f.InjLink(x, p))
		}
		for i, l := range list {
			pos[l] = int32(x<<6 | i)
		}
		inputs[x] = list
	}
	return inputs, pos
}
