package detect

import (
	"fmt"

	"wormnet/internal/router"
)

// The crude timeout heuristics referenced in the paper's introduction.
// They need no channel hardware at all; they consult per-message timers
// maintained by the engine. The paper reports that its previous mechanism
// (PDM) already improved on these by roughly a factor of 10, and NDM by two
// orders of magnitude.
//
// All three mark only blocked messages (a message that is advancing cannot
// trigger recovery in the simulator, and recovering an advancing message
// would be meaningless), which is the natural reading of the original
// proposals.

// SourceAgeTimeout marks a blocked message once the time since it started
// injecting exceeds the threshold (Reeves, Gehringer and Chandiramani:
// "a packet is considered to be deadlocked when the time since it was
// injected is longer than a threshold").
type SourceAgeTimeout struct {
	passive
	Threshold int64
}

// NewSourceAgeTimeout returns the mechanism with the given threshold.
func NewSourceAgeTimeout(threshold int64) *SourceAgeTimeout {
	return &SourceAgeTimeout{Threshold: threshold}
}

// Name implements Detector.
func (d *SourceAgeTimeout) Name() string { return fmt.Sprintf("src-age(th=%d)", d.Threshold) }

// RouteFailed implements Detector.
func (d *SourceAgeTimeout) RouteFailed(m *router.Message, _ router.LinkID, _ []router.LinkID, _ bool, now int64) bool {
	return now-m.InjectTime > d.Threshold
}

// SourceStallTimeout marks a blocked message once the time since its source
// last managed to inject a flit exceeds the threshold (the compressionless
// routing criterion of Kim, Liu and Chien: "a deadlock is detected if the
// time since the last flit was injected exceeds a threshold"). Once the
// tail has been injected the source can observe no further stall, so fully
// injected messages are exempt; this is the documented limitation of
// source-side detection.
type SourceStallTimeout struct {
	passive
	Threshold int64
}

// NewSourceStallTimeout returns the mechanism with the given threshold.
func NewSourceStallTimeout(threshold int64) *SourceStallTimeout {
	return &SourceStallTimeout{Threshold: threshold}
}

// Name implements Detector.
func (d *SourceStallTimeout) Name() string { return fmt.Sprintf("src-stall(th=%d)", d.Threshold) }

// RouteFailed implements Detector.
func (d *SourceStallTimeout) RouteFailed(m *router.Message, _ router.LinkID, _ []router.LinkID, _ bool, now int64) bool {
	if m.Injected >= m.Length {
		return false
	}
	return now-m.LastSourceFlit > d.Threshold
}

// HeaderBlockTimeout marks a message once its header has been continuously
// blocked at one node past the threshold (the Disha criterion of Anjan and
// Pinkston: "deadlocks are detected at the node containing the header by
// measuring the time that the header is blocked").
type HeaderBlockTimeout struct {
	passive
	Threshold int64
}

// NewHeaderBlockTimeout returns the mechanism with the given threshold.
func NewHeaderBlockTimeout(threshold int64) *HeaderBlockTimeout {
	return &HeaderBlockTimeout{Threshold: threshold}
}

// Name implements Detector.
func (d *HeaderBlockTimeout) Name() string { return fmt.Sprintf("hdr-block(th=%d)", d.Threshold) }

// RouteFailed implements Detector.
func (d *HeaderBlockTimeout) RouteFailed(m *router.Message, _ router.LinkID, _ []router.LinkID, first bool, now int64) bool {
	if first {
		return false
	}
	return now-m.BlockedSince > d.Threshold
}
