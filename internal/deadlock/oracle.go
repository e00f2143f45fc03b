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
// allocation-free and builds the wait-for graph once per evaluation: the
// seeds come from the fabric's occupied-VC bitmap (a blocked header sits in
// its message's head VC), are put in MsgID order through a bitmap over the
// message pool, and each seed's candidate VCs are read once into flat
// reverse-edge arrays; the fixpoint then peels escapes off a worklist over
// those arrays without consulting the routing function again. Set membership
// is tracked in an epoch-stamped flat array indexed by MsgID (bumping the
// epoch clears the set in O(1)), and the result is cached until the owner
// reports a fabric change through Invalidate. On a quiescent fabric — no
// flit transmitted, no virtual channel freed or allocated, no message newly
// blocked, marked or killed —
// the blocked set and the occupancy relation are both unchanged, so the
// greatest fixpoint provably cannot shrink or grow; CrossCheck asserts this
// invariant against a full recomputation in debug mode.
package deadlock

import (
	"fmt"
	"math/bits"

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

	// The wait-for graph of one evaluation, indexed by MsgID and valid for
	// seeds only. seedBits orders the seeds by ID (it is all zero between
	// evaluations). waitHead[id] is the first edge into seed id, -1 for none;
	// edge e says waiter[e] requests a VC held by that seed, and waitNext[e]
	// is the next edge into the same seed. escaped is the worklist of seeds
	// already removed whose waiters are still to be visited.
	seedBits []uint64
	waitHead []int32
	waiter   []router.MsgID
	waitNext []int32
	escaped  []router.MsgID

	blocked  []router.MsgID
	checkBuf []router.MsgID // CrossCheck's copy of the cached set
	vcBuf    []router.VCID

	// valid marks blocked/stamp as current with respect to the fabric; it
	// is cleared by Invalidate and set by Deadlocked. seenGen records the
	// fabric's structural generation at the last recomputation, so any VC
	// allocation or release invalidates the cache automatically; Invalidate
	// covers the remaining inputs the generation counter cannot see (message
	// phase and attempt-count changes).
	valid   bool
	seenGen uint64
}

// New returns an Oracle over fabric f using true fully adaptive candidates
// (every VC of every minimal physical channel, read through each
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
// allocations and releases are tracked automatically through the fabric's
// structural generation counter; the owner must call Invalidate only for
// input changes invisible to that counter — a message failing its first
// routing attempt (Attempts 0 -> 1) or changing phase without releasing a VC
// (a progressive-recovery mark, a header consumed at a delivery port).
func (o *Oracle) Invalidate() { o.valid = false }

// Deadlocked returns the IDs of all messages involved in a true deadlock,
// in ascending MsgID order. While the fabric is unchanged since the
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

// recompute runs the greatest-fixpoint kernel from scratch: seed, build the
// wait-for graph once, peel.
func (o *Oracle) recompute() {
	f := o.f
	o.epoch++
	o.seenGen = f.Gen()
	o.grow(f.NumMessages())
	o.blocked = o.blocked[:0]

	// Seed: every blocked message (header waiting, at least one failed
	// routing attempt, not being drained by recovery). A message's HeadVC is
	// an occupied VC held by that message (router.Fabric.CheckInvariants
	// audits it), so the blocked headers are found among the occupied VCs
	// rather than by walking the whole message pool.
	for it := f.OccupiedWords(); ; {
		w, word, ok := it.Next()
		if !ok {
			break
		}
		for ; word != 0; word &= word - 1 {
			vc := router.VCID(w<<6 + bits.TrailingZeros64(word))
			if !f.HeaderBlocked(vc) {
				continue
			}
			m := f.Msg(f.VCs[vc].Occupant)
			if m.HeadVC == vc && m.Phase == router.PhaseNetwork && m.Attempts > 0 {
				o.seedBits[m.ID>>6] |= 1 << (m.ID & 63)
			}
		}
	}
	// Ascending MsgID order, the order the result is reported in; the
	// bitmap is cleared on the way.
	for w, word := range o.seedBits[:(f.NumMessages()+63)>>6] {
		if word == 0 {
			continue
		}
		o.seedBits[w] = 0
		for ; word != 0; word &= word - 1 {
			id := router.MsgID(w<<6 + bits.TrailingZeros64(word))
			o.blocked = append(o.blocked, id)
			o.stamp[id] = o.epoch
			o.waitHead[id] = -1
		}
	}
	if len(o.blocked) == 0 {
		return
	}

	// One pass over the routing function: a seed with a candidate VC that
	// is free or held outside the seed set escapes at once; otherwise each
	// candidate's occupant gains a reverse edge to it.
	o.waiter, o.waitNext, o.escaped = o.waiter[:0], o.waitNext[:0], o.escaped[:0]
	for _, id := range o.blocked {
		m := f.Msg(id)
		o.vcBuf = o.cands(m, f.RouterOf(f.LinkOfVC(m.HeadVC)), o.vcBuf[:0])
		for _, vc := range o.vcBuf {
			occ := f.VCs[vc].Occupant
			if occ == router.NilMsg || o.stamp[occ] != o.epoch {
				o.stamp[id] = 0
				o.escaped = append(o.escaped, id)
				break
			}
			o.waitNext = append(o.waitNext, o.waitHead[occ])
			o.waitHead[occ] = int32(len(o.waiter))
			o.waiter = append(o.waiter, id)
		}
	}

	// Greatest fixpoint: a seed that waits on a removed seed escapes through
	// it. Every seed enters the worklist at most once, so this visits every
	// edge at most once.
	for n := len(o.escaped); n > 0; n = len(o.escaped) {
		id := o.escaped[n-1]
		o.escaped = o.escaped[:n-1]
		for e := o.waitHead[id]; e >= 0; e = o.waitNext[e] {
			if w := o.waiter[e]; o.stamp[w] == o.epoch {
				o.stamp[w] = 0
				o.escaped = append(o.escaped, w)
			}
		}
	}
	kept := o.blocked[:0]
	for _, id := range o.blocked {
		if o.stamp[id] == o.epoch {
			kept = append(kept, id)
		}
	}
	o.blocked = kept
}

// grow sizes the per-message tables to cover a pool of n messages. Epochs
// start at 1, so a zero stamp never matches and removal writes zero.
func (o *Oracle) grow(n int) {
	if n <= len(o.stamp) {
		return
	}
	n = 2*n + 8
	o.stamp = append(o.stamp, make([]uint64, n-len(o.stamp))...)
	o.waitHead = append(o.waitHead, make([]int32, n-len(o.waitHead))...)
	o.seedBits = append(o.seedBits, make([]uint64, (n+63)>>6-len(o.seedBits))...)
}

// Contains reports whether id was in the set produced by the most recent
// Deadlocked call.
func (o *Oracle) Contains(id router.MsgID) bool {
	return int(id) < len(o.stamp) && o.stamp[id] == o.epoch
}

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
