// Package recovery implements the deadlock recovery mechanisms that
// consume the detection verdicts.
//
// The paper pairs its detection mechanism with the software-based
// *progressive* recovery of Martínez et al. (ICPP 1997): a message marked
// as deadlocked is absorbed by the local node at the router holding its
// header — as if that node were its destination — which releases the
// virtual channels the worm holds (breaking the cycle) and the message is
// later re-injected toward its real destination. A *regressive*
// (abort-and-retry) alternative kills the worm outright, releasing all its
// buffers at once, and re-injects it at the original source.
package recovery

import (
	"fmt"

	"wormnet/internal/router"
	"wormnet/internal/snap"
)

// Style selects the recovery discipline.
type Style uint8

// Recovery styles.
const (
	// Progressive absorbs the marked message at the node holding its
	// header (1 flit/cycle through the node's recovery port) and re-injects
	// it there.
	Progressive Style = iota
	// Regressive kills the marked message, releasing every buffer it
	// holds, and re-injects it at its original source.
	Regressive
)

func (s Style) String() string {
	switch s {
	case Progressive:
		return "progressive"
	case Regressive:
		return "regressive"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// Hooks let the recovery engine report resource releases and completed
// recoveries to its owner (the simulation engine).
type Hooks struct {
	// VCFreed is called for the physical channel of every virtual channel
	// the recovery releases, so detection flow-control state stays honest.
	VCFreed func(router.LinkID)
	// Recovered is called when a message has been fully removed from the
	// fabric: node is where it must be re-injected from (the absorbing node
	// for progressive recovery, the original source for regressive). If
	// node equals the message's destination the owner should count it as
	// delivered instead of re-injecting.
	Recovered func(m *router.Message, node int)
}

// Engine drains marked messages out of the fabric.
type Engine struct {
	f     *router.Fabric
	style Style
	hooks Hooks
	// active holds messages undergoing progressive absorption.
	active []router.MsgID
	// absorbedFlits counts flits consumed through absorption ports over the
	// whole run (telemetry; never feeds back into recovery decisions).
	absorbedFlits int64
	// listed is RestoreSnapshot's scratch: listed[id] marks a message already
	// seen on the restored absorption list.
	listed []bool
}

// New builds a recovery engine over fabric f.
func New(f *router.Fabric, style Style, hooks Hooks) *Engine {
	if hooks.VCFreed == nil {
		hooks.VCFreed = func(router.LinkID) {}
	}
	if hooks.Recovered == nil {
		panic("recovery: Recovered hook is required")
	}
	return &Engine{f: f, style: style, hooks: hooks}
}

// Style returns the configured recovery discipline.
func (e *Engine) Style() Style { return e.style }

// Active returns the number of messages currently being absorbed.
func (e *Engine) Active() int { return len(e.active) }

// AbsorbedFlits returns the cumulative number of flits consumed through
// absorption ports (progressive recovery only).
func (e *Engine) AbsorbedFlits() int64 { return e.absorbedFlits }

// AppendSnapshot appends the engine's state to dst for sim.Engine.Snapshot:
// the absorption list in order (the order fixes the hook call order; the
// membership decides which worms drain each cycle) and, outside canonical
// mode, the absorbed-flit total.
func (e *Engine) AppendSnapshot(dst []byte, m snap.Mode) []byte {
	dst = snap.IDs(m, dst, e.active)
	if m.Canonical {
		return dst
	}
	return snap.I64(dst, e.absorbedFlits)
}

// RestoreSnapshot replaces the state with what AppendSnapshot wrote. It runs
// after the fabric has been restored and checks what Step relies on: every
// listed message is in the pool, is recovering, still has a front buffer, and
// is listed once. Errors stay in r.
func (e *Engine) RestoreSnapshot(r *snap.Reader) {
	e.active = snap.ReadIDs(r, e.active, 0, e.f.NumMessages())
	e.absorbedFlits = r.I64()
	if r.Err() != nil {
		return
	}
	recovering := 0
	e.f.LiveMessages(func(m *router.Message) {
		if m.Phase == router.PhaseRecovering {
			recovering++
		}
	})
	// Every listed message recovering, none listed twice, and as many listed
	// as are recovering: the list is exactly the recovering set.
	if recovering != len(e.active) {
		r.Failf("recovery: snapshot absorbs %d messages, %d are recovering", len(e.active), recovering)
		return
	}
	e.listed = append(e.listed[:0], make([]bool, e.f.NumMessages())...)
	for _, id := range e.active {
		if m := e.f.Msg(id); m.Phase != router.PhaseRecovering || m.HeadVC == router.NilVC || e.listed[id] {
			r.Failf("recovery: snapshot absorbs message %d (%s, head VC %d, listed before: %v)",
				id, m.Phase, m.HeadVC, e.listed[id])
			return
		}
		e.listed[id] = true
	}
}

// Mark begins recovery of message m, which a detection mechanism has just
// declared deadlocked.
func (e *Engine) Mark(m *router.Message, now int64) {
	m.Marked = true
	m.MarkTime = now
	switch e.style {
	case Progressive:
		m.Phase = router.PhaseRecovering
		e.active = append(e.active, m.ID)
	case Regressive:
		src := int(m.Src)
		for _, vc := range e.f.ReleaseWorm(m) {
			e.hooks.VCFreed(e.f.LinkOfVC(vc))
		}
		m.Phase = router.PhaseAborted
		e.hooks.Recovered(m, src)
	}
}

// Step advances progressive absorption by one cycle: each recovering
// message's node consumes one flit from the virtual channel holding the
// worm's front. Upstream flits keep flowing toward that buffer through the
// normal transfer pipeline, so the whole worm drains and its channels are
// released as the tail passes.
func (e *Engine) Step() {
	kept := e.active[:0]
	for _, id := range e.active {
		m := e.f.Msg(id)
		if !e.absorbOne(m) {
			kept = append(kept, id)
		}
	}
	e.active = kept
}

// absorbOne consumes at most one flit of m and reports whether the message
// has been fully absorbed.
func (e *Engine) absorbOne(m *router.Message) bool {
	head := m.HeadVC
	if head == router.NilVC {
		panic("recovery: absorbing message without a head VC")
	}
	vc := &e.f.VCs[head]
	if vc.Flits == 0 {
		// Waiting for upstream flits to arrive.
		return false
	}
	tail := vc.HasTail && vc.Flits == 1
	vc.Flits--
	m.Consumed++
	e.absorbedFlits++
	if vc.HasHeader {
		vc.HasHeader = false
	}
	if !tail {
		return false
	}
	// The tail has been absorbed; the front buffer is the last resource.
	link := vc.Link
	e.f.ReleaseEmptyVC(head)
	node := e.f.RouterOf(link)
	m.HeadVC = router.NilVC
	m.TailVC = router.NilVC
	e.hooks.VCFreed(link)
	e.hooks.Recovered(m, node)
	return true
}
