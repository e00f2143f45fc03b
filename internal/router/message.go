package router

import "fmt"

// MsgPhase tracks where a message is in its lifecycle.
type MsgPhase uint8

// Message lifecycle phases.
const (
	// PhaseQueued: generated, waiting in the source queue for an injection
	// port (possibly held back by the injection-limitation mechanism).
	PhaseQueued MsgPhase = iota
	// PhaseNetwork: occupying fabric resources (being injected, advancing
	// or blocked).
	PhaseNetwork
	// PhaseRecovering: marked as deadlocked; its flits are being absorbed
	// by the recovery mechanism at the node holding its header.
	PhaseRecovering
	// PhaseDelivered: all flits consumed at the destination.
	PhaseDelivered
	// PhaseAborted: killed by regressive recovery; will be re-injected.
	PhaseAborted
)

func (p MsgPhase) String() string {
	switch p {
	case PhaseQueued:
		return "queued"
	case PhaseNetwork:
		return "network"
	case PhaseRecovering:
		return "recovering"
	case PhaseDelivered:
		return "delivered"
	case PhaseAborted:
		return "aborted"
	default:
		return fmt.Sprintf("MsgPhase(%d)", int(p))
	}
}

// Message is one wormhole message. Fields are maintained by the engine and
// read by the detection mechanisms, the recovery engine and the oracle.
type Message struct {
	ID     MsgID
	Src    int32
	Dst    int32
	Length int32 // flits, including header and tail
	Phase  MsgPhase

	// HeadVC is the VC containing the header flit (the worm's front) while
	// the header is in the network; NilVC once the header has been consumed
	// at the destination or by recovery.
	HeadVC VCID
	// TailVC is the backmost VC the worm still occupies; NilVC before the
	// first allocation.
	TailVC VCID

	// Injected counts flits the source has pushed into the injection
	// buffer; Consumed counts flits drained at the destination or absorbed
	// by recovery.
	Injected int32
	Consumed int32

	// InjLink is the injection port the message entered through (NilLink
	// once the tail has left it). Used by the source feed stage.
	InjLink LinkID

	// Timestamps (cycle numbers).
	GenTime     int64 // generation (enqueue at source)
	InjectTime  int64 // first flit entered the injection buffer
	DeliverTime int64 // tail consumed at destination

	// Blocked routing state at the current node.
	//
	// Attempts counts failed routing attempts since the header last
	// advanced; it resets to zero whenever the header moves. The first
	// failed attempt at a node runs the G/P-setting logic of the paper's
	// mechanism; later ones run the DT check.
	Attempts     int32
	BlockedSince int64 // cycle of the first failed attempt at this node

	// LastSourceFlit is the last cycle the source pushed a flit into the
	// injection buffer; used by the compressionless-style crude timeout.
	LastSourceFlit int64

	// Marked is set when a detection mechanism declares the message
	// deadlocked; MarkTime records when. TrueDeadlock records the oracle's
	// verdict at mark time.
	Marked       bool
	MarkTime     int64
	TrueDeadlock bool

	// Retries counts how many times the message was re-injected after
	// recovery (progressive re-injection or regressive abort-and-retry).
	Retries int32

	// Route caches the header's routing relation at its current router; see
	// Fabric.RouteMask, the only reader and writer.
	Route RouteMemo
}

// RouteMemo is a message's cached minimal-direction mask together with the
// (router, destination) pair it was computed for. The mask is a pure function
// of that pair, so the memo is derived state: it is never part of a digest or
// of the model checker's canonical encoding, and a lookup under any other key
// simply recomputes. The zero value is empty.
type RouteMemo struct {
	// Mask is topology.Torus.MinimalDirMask(At-1, Dst).
	Mask uint32
	// At is the router the mask was computed at, plus one; 0 means empty.
	At int32
	// Dst is the destination the mask was computed for.
	Dst int32
}

// Blocked reports whether the message has a header waiting unsuccessfully
// at some router (at least one failed routing attempt and still in the
// network).
func (m *Message) Blocked() bool {
	return m.Phase == PhaseNetwork && m.Attempts > 0
}

// Remaining returns how many flits have not yet been consumed.
func (m *Message) Remaining() int32 { return m.Length - m.Consumed }

// String summarizes the message for debug output.
func (m *Message) String() string {
	return fmt.Sprintf("msg %d %d->%d len=%d phase=%s head=%d tail=%d inj=%d cons=%d att=%d",
		m.ID, m.Src, m.Dst, m.Length, m.Phase, m.HeadVC, m.TailVC, m.Injected, m.Consumed, m.Attempts)
}
