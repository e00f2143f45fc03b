// Package deadlock provides a global, omniscient deadlock oracle for the
// simulator. The distributed mechanisms in internal/detect only see local
// router state; the oracle sees the whole network and computes the set of
// messages that are *truly* deadlocked, so that every detection can be
// classified as true or false, and the actual frequency of deadlock (the
// paper's "(*)" table annotations) can be measured.
//
// Definition. Under fully adaptive routing a blocked message escapes if
// ANY of its feasible output virtual channels becomes available (OR
// semantics). A set S of blocked messages is deadlocked iff it is
// non-empty and, for every message in S, every feasible output virtual
// channel is occupied by a message that is itself in S. The largest such
// set is the greatest fixpoint of the "cannot escape" operator and is
// computed by iteratively discarding messages with any escape route:
// a free candidate VC, or a candidate VC held by a message that is
// advancing, draining (recovering/delivering) or already discarded.
//
// The oracle runs on the hot path of every marked message, so the kernel is
// allocation-free: set membership is tracked in an epoch-stamped flat array
// indexed by MsgID (bumping the epoch clears the set in O(1)), and the
// result is cached until the owner reports a fabric change through
// Invalidate. On a quiescent fabric — no flit transmitted, no virtual
// channel freed or allocated, no message newly blocked, marked or killed —
// the blocked set and the occupancy relation are both unchanged, so the
// greatest fixpoint provably cannot shrink or grow; CrossCheck asserts this
// invariant against a full recomputation in debug mode.
package deadlock

import (
	"fmt"

	"wormnet/internal/router"
	"wormnet/internal/routing"
)

// CandidateFunc enumerates the virtual channels a blocked message may
// request at the given router, mirroring the active routing algorithm.
type CandidateFunc func(m *router.Message, node int, buf []router.VCID) []router.VCID

// Oracle computes truly deadlocked message sets over one fabric. It keeps
// scratch buffers so repeated calls do not allocate, and caches the most
// recent result until Invalidate is called.
type Oracle struct {
	f     *router.Fabric
	cands CandidateFunc

	// Epoch-stamped membership: stamp[id] == epoch means message id is in
	// the current deadlocked candidate set. Bumping epoch empties the set
	// without touching the array.
	epoch uint64
	stamp []uint64

	blocked  []router.MsgID
	checkBuf []router.MsgID // CrossCheck's copy of the cached set
	vcBuf    []router.VCID

	// valid marks blocked/stamp as current with respect to the fabric; it
	// is cleared by Invalidate and set by Deadlocked. seenGen records the
	// fabric's structural generation at the last recomputation, so any VC
	// allocation/release or link failure/repair invalidates the cache
	// automatically; Invalidate covers the remaining inputs the generation
	// counter cannot see (message phase and attempt-count changes).
	valid   bool
	seenGen uint64
}

// New returns an Oracle over fabric f using true fully adaptive candidates
// (every VC of every healthy minimal physical channel, read through each
// header's route memo); SetCandidates overrides this for other routing
// algorithms.
func New(f *router.Fabric) *Oracle {
	return &Oracle{f: f, cands: func(m *router.Message, node int, buf []router.VCID) []router.VCID {
		return routing.TrueFullyAdaptive{}.Candidates(f, m, node, buf)
	}}
}

// SetCandidates installs the routing algorithm's candidate function.
func (o *Oracle) SetCandidates(fn CandidateFunc) { o.cands = fn }

// Invalidate marks the cached deadlocked set stale. Virtual-channel
// allocations/releases and link failures/repairs are tracked automatically
// through the fabric's structural generation counter; the owner must call
// Invalidate only for input changes invisible to that counter — a message
// failing its first routing attempt (Attempts 0 -> 1) or changing phase
// without releasing a VC (a progressive-recovery mark, a header consumed at
// a delivery port).
func (o *Oracle) Invalidate() { o.valid = false }

// Deadlocked returns the IDs of all messages involved in a true deadlock,
// in ascending order of discovery. While the fabric is unchanged since the
// last evaluation — same structural generation and no Invalidate call — the
// cached set is returned without recomputation. The result slice is reused
// across calls; callers that retain it must copy.
func (o *Oracle) Deadlocked() []router.MsgID {
	if !o.valid || o.seenGen != o.f.Gen() {
		o.recompute()
		o.valid = true
	}
	return o.blocked
}

// recompute runs the greatest-fixpoint kernel from scratch.
func (o *Oracle) recompute() {
	f := o.f
	o.epoch++
	o.seenGen = f.Gen()
	// Seed: every blocked message (header waiting, at least one failed
	// routing attempt, not being drained by recovery).
	o.blocked = o.blocked[:0]
	f.LiveMessages(func(m *router.Message) {
		if m.Phase == router.PhaseNetwork && m.Attempts > 0 &&
			m.HeadVC != router.NilVC && f.HeaderBlocked(m.HeadVC) {
			o.blocked = append(o.blocked, m.ID)
			o.add(m.ID)
		}
	})
	if len(o.blocked) == 0 {
		return
	}

	// Greatest fixpoint: repeatedly remove messages with an escape.
	for changed := true; changed; {
		changed = false
		kept := o.blocked[:0]
		for _, id := range o.blocked {
			if o.canEscape(f.Msg(id)) {
				o.remove(id)
				changed = true
				continue
			}
			kept = append(kept, id)
		}
		o.blocked = kept
	}
}

// add stamps id as a member of the current set, growing the stamp array to
// cover the message pool when needed.
func (o *Oracle) add(id router.MsgID) {
	if int(id) >= len(o.stamp) {
		grown := make([]uint64, 2*int(id)+8)
		copy(grown, o.stamp)
		o.stamp = grown
	}
	o.stamp[id] = o.epoch
}

// remove unstamps id. Epochs start at 1, so zero never matches.
func (o *Oracle) remove(id router.MsgID) { o.stamp[id] = 0 }

// inSet reports membership in the current set.
func (o *Oracle) inSet(id router.MsgID) bool {
	return int(id) < len(o.stamp) && o.stamp[id] == o.epoch
}

// canEscape reports whether message m has at least one feasible output
// virtual channel that is free or held by a message outside the current
// candidate set.
func (o *Oracle) canEscape(m *router.Message) bool {
	f := o.f
	node := f.RouterOf(f.LinkOfVC(m.HeadVC))
	o.vcBuf = o.cands(m, node, o.vcBuf[:0])
	for _, vc := range o.vcBuf {
		occ := f.VCs[vc].Occupant
		if occ == router.NilMsg || !o.inSet(occ) {
			return true
		}
	}
	return false
}

// Contains reports whether id was in the set produced by the most recent
// Deadlocked call.
func (o *Oracle) Contains(id router.MsgID) bool { return o.inSet(id) }

// CrossCheck verifies the cached deadlocked set against a full
// recomputation. It is the debug-mode assertion of the dirty-tracking
// invariant: if the owner reported every relevant fabric change through
// Invalidate, a cached set must be exactly what a fresh evaluation yields.
// It is a no-op when no cached set exists, and leaves the oracle holding
// the (identical) freshly computed set.
func (o *Oracle) CrossCheck() error {
	if !o.valid {
		return nil
	}
	o.checkBuf = append(o.checkBuf[:0], o.blocked...)
	o.recompute()
	if len(o.blocked) != len(o.checkBuf) {
		return fmt.Errorf("deadlock: cached set has %d members, recomputation %d (missed Invalidate)",
			len(o.checkBuf), len(o.blocked))
	}
	for i, id := range o.blocked {
		if o.checkBuf[i] != id {
			return fmt.Errorf("deadlock: cached set diverges at index %d: cached %d, recomputed %d (missed Invalidate)",
				i, o.checkBuf[i], id)
		}
	}
	return nil
}
