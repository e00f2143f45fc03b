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
// The oracle runs on the hot path of every marked message, and every cycle
// when it measures deadlock frequency, so it keeps its wait-for graph between
// evaluations and repairs it where the fabric changed. The graph: the seeds
// (blocked headers: a failed routing attempt, still in the network, the
// header waiting in the message's head VC), each seed's out-edges (one per
// candidate VC, naming its occupant or none) in a flat arena, a waiter list
// per message threading the edges that name it, and for every escaped seed
// one witness edge — a free candidate VC, or one held by a message that is
// not a seed or has escaped itself. Witnesses form a forest, so a seed keeps
// its escape as long as nothing on its witness path changed.
//
// What can change a seed is known: its header's router's change stamp
// (router.Fabric.Stamp) covers its head VC and the occupants of every
// candidate VC, and the owner reports the message-level changes the stamps
// cannot see — a first failed routing attempt, a mark — through
// MessageChanged. An evaluation re-checks the reported messages and the
// seeds whose router stamp moved; a seed whose candidate VCs kept their
// occupants, or an escaped one whose witness edge did, is unchanged. A
// changed seed with a root escape (a free candidate VC, or one held by a
// message that is not a seed) keeps every witness path through it valid.
// The other changed seeds, with every seed whose witness path runs through
// one, form the region, which is reset to deadlocked and peeled again;
// escapes spread into the rest of the deadlocked set through the waiter
// lists. A deadlock is a property of a subset of messages, so outside that
// region nothing can have changed. The from-scratch kernel (rebuild) runs on
// the first evaluation and after Invalidate; CrossCheck runs it on a second
// oracle as the reference for the incremental set.
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

// Seed states.
const (
	notSeed    uint8 = iota // not a blocked header
	escaped                 // a seed with an escape, recorded in wit
	deadlocked              // a seed in the deadlocked set
)

// msgRec is the oracle's record of one pooled message ID.
type msgRec struct {
	wit   int32  // an escaped seed's witness edge, -1 otherwise
	pos   int32  // a seed's index in Oracle.seeds
	pass  uint32 // == Oracle.pass: already in this evaluation's region
	state uint8
	dirty bool // reported: on Oracle.dirty
}

// seedRef is one entry of the seed list. The evaluation's stamp check walks
// the list in order, and for most seeds whose stamp moved reads nothing
// else.
type seedRef struct {
	stamp uint64       // its router's stamp when its edges were last read
	id    router.MsgID // the seed
	node  int32        // the router its header waits at
	head  router.VCID  // its head VC when its candidates were read
	off   int32        // its first edge in Oracle.edges
	n     int32        // its edge count
}

// edge is one out-edge of a seed: candidate VC vc the waiter requests, held
// by occ (router.NilMsg for a free VC). next and prev thread the edges
// naming the same occupant from Oracle.waitHead; an edge to a free VC is on
// no list.
type edge struct {
	occ, waiter router.MsgID
	vc          router.VCID
	next, prev  int32
}

// Oracle computes truly deadlocked message sets over one fabric. It keeps
// its wait-for graph and scratch buffers between calls, so repeated calls
// neither allocate nor re-derive what did not change.
type Oracle struct {
	f     *router.Fabric
	cands CandidateFunc

	// recs is indexed by MsgID; seeds lists the current seeds in no
	// particular order. edges is the edge arena: a seed's edges are the
	// contiguous range its seedRef names, and a range a seed gives up goes
	// on free[its length] for the next seed with that many candidates.
	// waitHead[id] is the first edge naming message id, -1 for none.
	recs     []msgRec
	seeds    []seedRef
	edges    []edge
	free     [][]int32
	waitHead []int32

	// The deadlocked set as a bitmap over MsgID (ascending output order
	// without sorting) and its size; blocked is the reported slice, rebuilt
	// from the bitmap when outStale.
	dead     []uint64
	nDead    int
	blocked  []router.MsgID
	outStale bool

	// dirty lists the messages reported through MessageChanged since the
	// last evaluation. region and work are an evaluation's scratch; pass
	// numbers the evaluations for msgRec.pass.
	dirty  []router.MsgID
	region []router.MsgID
	work   []router.MsgID
	pass   uint32
	vcBuf  []router.VCID

	// stale forces the next evaluation to rebuild from scratch; it starts
	// set, so an oracle that is never consulted never tracks a change.
	stale bool
	// ref is CrossCheck's from-scratch reference, built on first use.
	ref *Oracle
}

// New returns an Oracle over fabric f using true fully adaptive candidates
// (every VC of every minimal physical channel, read through each
// header's route memo); SetCandidates overrides this for other routing
// algorithms.
func New(f *router.Fabric) *Oracle {
	return &Oracle{f: f, stale: true, cands: func(m *router.Message, node int, buf []router.VCID) []router.VCID {
		return routing.TrueFullyAdaptive{}.Candidates(f, m, node, buf)
	}}
}

// SetCandidates installs the routing algorithm's candidate function.
func (o *Oracle) SetCandidates(fn CandidateFunc) {
	o.cands = fn
	o.stale = true
}

// Invalidate makes the next evaluation rebuild the wait-for graph from
// scratch. The owner calls it after replacing the fabric's state wholesale
// (a restore); ordinary changes are tracked through the router stamps and
// MessageChanged.
func (o *Oracle) Invalidate() { o.stale = true }

// MessageChanged reports a change to message id that no router stamp sees:
// a first failed routing attempt (Attempts 0 -> 1 makes a blocked header a
// seed) or a change of phase without a VC changing hands (a mark). Route
// successes, deliveries, requeues and released worms move VCs and need no
// report.
func (o *Oracle) MessageChanged(id router.MsgID) {
	if !o.stale {
		o.report(id)
	}
}

// report is MessageChanged past its inlined test: it puts message id on the
// dirty list once.
func (o *Oracle) report(id router.MsgID) {
	if int(id) >= len(o.recs) {
		o.grow(int(id) + 1)
	}
	if r := &o.recs[id]; !r.dirty {
		r.dirty = true
		o.dirty = append(o.dirty, id)
	}
}

// Deadlocked returns the IDs of all messages involved in a true deadlock,
// in ascending MsgID order. The result slice is reused across calls;
// callers that retain it must copy.
func (o *Oracle) Deadlocked() []router.MsgID {
	o.evaluate()
	if o.outStale {
		o.outStale = false
		o.blocked = o.blocked[:0]
		if o.nDead > 0 {
			for w, word := range o.dead {
				for ; word != 0; word &= word - 1 {
					o.blocked = append(o.blocked, router.MsgID(w<<6+bits.TrailingZeros64(word)))
				}
			}
		}
	}
	return o.blocked
}

// Contains reports whether id was in the set produced by the most recent
// Deadlocked call.
func (o *Oracle) Contains(id router.MsgID) bool {
	return int(id) < len(o.recs) && o.recs[id].state == deadlocked
}

// evaluate brings the graph and the deadlocked set up to date.
func (o *Oracle) evaluate() {
	f := o.f
	if o.stale {
		o.rebuild()
		return
	}
	o.grow(f.NumMessages())

	// The reported messages first, then every seed whose router stamp moved
	// (a re-derived seed's stamp is current, so none is visited twice). The
	// seed list is walked from its end, so the swap-remove of a seed that
	// left moves an already visited one into its place. A stamp moves for
	// any change at the router, most of which leave a given seed's edges as
	// they were; only the messages whose seed status or edges changed go on.
	changed := o.region[:0]
	for _, id := range o.dirty {
		if o.rederive(id) {
			changed = append(changed, id)
		}
	}
	o.dirty = o.dirty[:0]
	for i := len(o.seeds) - 1; i >= 0; i-- {
		if sr := &o.seeds[i]; f.Stamp(int(sr.node)) != sr.stamp {
			if id := sr.id; o.recheck(i) {
				changed = append(changed, id)
			}
		}
	}

	// Every seed status is final now. A changed message that is not a seed,
	// or a changed seed with a root escape — a free candidate VC, or one held
	// by a message that is not a seed — escapes whatever else changed, so
	// the witness paths through it hold: it only spreads its escape. The
	// other changed seeds start the region, which collects every seed whose
	// witness path runs through one. A region seed is deadlocked by now, so
	// it is not collected twice.
	o.pass++
	work, region := o.work[:0], changed[:0]
	for _, id := range changed {
		if r := &o.recs[id]; r.state == notSeed || o.rootEscape(id) {
			work = append(work, id)
		} else {
			r.pass = o.pass
			region = append(region, id)
		}
	}
	roots := len(region)
	for i := 0; i < len(region); i++ {
		for e := o.waitHead[region[i]]; e >= 0; e = o.edges[e].next {
			w := o.edges[e].waiter
			if r := &o.recs[w]; r.state == escaped && r.wit == e && r.pass != o.pass {
				r.pass = o.pass
				region = append(region, w)
			}
		}
	}
	for _, id := range region[roots:] {
		o.setState(id, deadlocked)
		o.recs[id].wit = -1
	}

	// Peel the region, and spread every escape found into the rest of the
	// deadlocked set.
	for _, id := range region {
		if o.escape(id) {
			work = append(work, id)
		}
	}
	o.region = region
	o.work = o.peel(work)
}

// rebuild is the from-scratch kernel: seed from the occupied VCs, derive
// every seed's edges, peel.
func (o *Oracle) rebuild() {
	f := o.f
	o.stale = false
	o.grow(f.NumMessages())
	for _, sr := range o.seeds {
		o.recs[sr.id].state = notSeed
	}
	for _, id := range o.dirty {
		o.recs[id].dirty = false
	}
	// Every waiter list starts at an edge in the arena, so emptying the
	// lists of the occupants the arena names empties them all.
	for i := range o.edges {
		if occ := o.edges[i].occ; occ != router.NilMsg {
			o.waitHead[occ] = -1
		}
	}
	o.seeds, o.dirty, o.edges = o.seeds[:0], o.dirty[:0], o.edges[:0]
	for n := range o.free {
		o.free[n] = o.free[n][:0]
	}
	clear(o.dead)
	o.nDead, o.outStale = 0, true

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
				o.addSeed(m.ID)
			}
		}
	}
	work := o.work[:0]
	for _, sr := range o.seeds {
		if o.escape(sr.id) {
			work = append(work, sr.id)
		}
	}
	o.work = o.peel(work)
}

// isSeed reports whether message m is a blocked header — the seed rule
// rebuild applies to the occupied VCs.
func (o *Oracle) isSeed(m *router.Message) bool {
	return m.Phase == router.PhaseNetwork && m.Attempts > 0 &&
		m.HeadVC != router.NilVC && o.f.HeaderBlocked(m.HeadVC)
}

// rederive re-applies the seed rule to reported message id and, for a seed,
// reads its candidate VCs afresh. It reports whether the message is or was
// a seed; a seed enters deadlocked, to be peeled.
func (o *Oracle) rederive(id router.MsgID) bool {
	r := &o.recs[id]
	r.dirty = false
	seed := o.isSeed(o.f.Msg(id))
	switch {
	case r.state == notSeed && !seed:
		return false
	case r.state == notSeed:
		o.addSeed(id)
	case !seed:
		o.removeSeed(id)
	default:
		o.derive(id)
		o.setState(id, deadlocked)
	}
	return true
}

// recheck brings seed i of the list, unreported but with a moved router
// stamp, up to date, and reports whether anything the fixpoint reads
// changed. The message under the seed's ID is a seed still if the seed rule
// holds with its header in the VC the seed was found in; it is then the same
// incarnation in the same place, with the same candidate VCs, so only their
// occupants can have changed. (A header that arrives anywhere starts with no
// failed attempt, and its first failure is reported: a message whose header
// moved, or a new holder of a pooled ID, is unreported only while it is no
// seed.) A seed that left, or a deadlocked seed with an occupant changed, is
// changed; so is an escaped one whose witness edge changed its occupant. An
// escaped seed whose witness edge kept its occupant still escapes through it
// (if that occupant changed, the region reaches this seed from there). A
// changed seed enters deadlocked.
func (o *Oracle) recheck(i int) bool {
	f := o.f
	sr := &o.seeds[i]
	id := sr.id
	if m := f.Msg(id); m.HeadVC != sr.head || !o.isSeed(m) {
		o.removeSeed(id)
		return true
	}
	sr.stamp = f.Stamp(int(sr.node))
	end := sr.off + sr.n
	e := sr.off
	for e < end && f.VCs[o.edges[e].vc].Occupant == o.edges[e].occ {
		e++
	}
	if e == end {
		return false
	}
	r := &o.recs[id]
	witMoved := false
	for ; e < end; e++ {
		ed := &o.edges[e]
		if occ := f.VCs[ed.vc].Occupant; occ != ed.occ {
			o.unlink(e)
			ed.occ = occ
			o.link(e)
			witMoved = witMoved || e == r.wit
		}
	}
	if r.state == escaped && !witMoved {
		return false
	}
	r.wit = -1
	o.setState(id, deadlocked)
	return true
}

// addSeed enters message id, a blocked header, into the seed set as
// deadlocked and derives its edges.
func (o *Oracle) addSeed(id router.MsgID) {
	o.recs[id].pos = int32(len(o.seeds))
	o.seeds = append(o.seeds, seedRef{id: id, n: -1})
	o.derive(id)
	o.setState(id, deadlocked)
}

// removeSeed takes message id out of the seed set, giving up its edges.
func (o *Oracle) removeSeed(id router.MsgID) {
	r := &o.recs[id]
	sr := &o.seeds[r.pos]
	for e := sr.off; e < sr.off+sr.n; e++ {
		o.unlink(e)
	}
	o.release(sr.off, sr.n)
	last := o.seeds[len(o.seeds)-1]
	o.seeds[r.pos] = last
	o.recs[last.id].pos = r.pos
	o.seeds = o.seeds[:len(o.seeds)-1]
	o.setState(id, notSeed)
}

// derive reads seed id's candidate VCs through the routing function once
// and makes them its edges, in the range it holds if the count is unchanged.
// A new seed arrives with n == -1, holding no range.
func (o *Oracle) derive(id router.MsgID) {
	f := o.f
	m := f.Msg(id)
	node := f.RouterOf(f.LinkOfVC(m.HeadVC))
	o.vcBuf = o.cands(m, node, o.vcBuf[:0])
	sr := &o.seeds[o.recs[id].pos]
	n := int32(len(o.vcBuf))
	for e := sr.off; e < sr.off+sr.n; e++ {
		o.unlink(e)
	}
	if sr.n != n {
		if sr.n >= 0 {
			o.release(sr.off, sr.n)
		}
		sr.off = o.alloc(n)
	}
	sr.stamp, sr.node, sr.head, sr.n = f.Stamp(node), int32(node), m.HeadVC, n
	o.recs[id].wit = -1
	for i, vc := range o.vcBuf {
		e := sr.off + int32(i)
		o.edges[e] = edge{occ: f.VCs[vc].Occupant, waiter: id, vc: vc}
		o.link(e)
	}
}

// alloc returns the offset of a free range of n edges.
func (o *Oracle) alloc(n int32) int32 {
	if int(n) < len(o.free) {
		if k := len(o.free[n]); k > 0 {
			off := o.free[n][k-1]
			o.free[n] = o.free[n][:k-1]
			return off
		}
	}
	off := int32(len(o.edges))
	o.edges = append(o.edges, make([]edge, n)...)
	return off
}

// release frees the range of n edges at off, already unlinked.
func (o *Oracle) release(off, n int32) {
	for int(n) >= len(o.free) {
		o.free = append(o.free, nil)
	}
	o.free[n] = append(o.free[n], off)
}

// link threads edge e onto the front of its occupant's waiter list.
func (o *Oracle) link(e int32) {
	ed := &o.edges[e]
	ed.next, ed.prev = -1, -1
	if ed.occ == router.NilMsg {
		return
	}
	if h := o.waitHead[ed.occ]; h >= 0 {
		ed.next = h
		o.edges[h].prev = e
	}
	o.waitHead[ed.occ] = e
}

// unlink takes edge e off its occupant's waiter list.
func (o *Oracle) unlink(e int32) {
	ed := &o.edges[e]
	if ed.occ == router.NilMsg {
		return
	}
	if ed.prev >= 0 {
		o.edges[ed.prev].next = ed.next
	} else {
		o.waitHead[ed.occ] = ed.next
	}
	if ed.next >= 0 {
		o.edges[ed.next].prev = ed.prev
	}
}

// escape looks for an escape of deadlocked seed id among its edges — a free
// candidate VC, or one held by a message outside the deadlocked set — and
// records the first as its witness.
func (o *Oracle) escape(id router.MsgID) bool {
	r := &o.recs[id]
	sr := &o.seeds[r.pos]
	for e := sr.off; e < sr.off+sr.n; e++ {
		if occ := o.edges[e].occ; occ == router.NilMsg || o.recs[occ].state != deadlocked {
			o.setState(id, escaped)
			r.wit = e
			return true
		}
	}
	return false
}

// rootEscape is escape restricted to the escapes no other seed's state can
// take away: a free candidate VC, or one held by a message that is not a
// seed.
func (o *Oracle) rootEscape(id router.MsgID) bool {
	r := &o.recs[id]
	sr := &o.seeds[r.pos]
	for e := sr.off; e < sr.off+sr.n; e++ {
		if occ := o.edges[e].occ; occ == router.NilMsg || o.recs[occ].state == notSeed {
			o.setState(id, escaped)
			r.wit = e
			return true
		}
	}
	return false
}

// peel is the greatest fixpoint's worklist: a deadlocked seed waiting on a
// message that left the set escapes through it. Every seed enters the
// worklist at most once per evaluation, so this visits every edge at most
// once. It returns the emptied worklist for reuse.
func (o *Oracle) peel(work []router.MsgID) []router.MsgID {
	// Once nothing is deadlocked, nothing is left to escape.
	for n := len(work); n > 0 && o.nDead > 0; n = len(work) {
		id := work[n-1]
		work = work[:n-1]
		for e := o.waitHead[id]; e >= 0; e = o.edges[e].next {
			w := o.edges[e].waiter
			if o.recs[w].state == deadlocked {
				o.setState(w, escaped)
				o.recs[w].wit = e
				work = append(work, w)
			}
		}
	}
	return work[:0]
}

// setState moves message id to state s, keeping the deadlocked bitmap and
// its count in step.
func (o *Oracle) setState(id router.MsgID, s uint8) {
	r := &o.recs[id]
	if (r.state == deadlocked) != (s == deadlocked) {
		o.dead[id>>6] ^= 1 << (id & 63)
		if s == deadlocked {
			o.nDead++
		} else {
			o.nDead--
		}
		o.outStale = true
	}
	r.state = s
}

// grow sizes the per-message tables to cover a pool of n messages.
func (o *Oracle) grow(n int) {
	if n <= len(o.recs) {
		return
	}
	n = 2*n + 8
	o.recs = append(o.recs, make([]msgRec, n-len(o.recs))...)
	for len(o.waitHead) < n {
		o.waitHead = append(o.waitHead, -1)
	}
	o.dead = append(o.dead, make([]uint64, (n+63)>>6-len(o.dead))...)
}

// CrossCheck brings the oracle up to date and verifies its deadlocked set
// against a from-scratch evaluation on a second oracle. It is the debug-mode
// assertion of the change tracking: if the owner reported every message
// change the router stamps cannot see, the incremental set must be exactly
// what a rebuild yields. It leaves the oracle's own graph as it was.
func (o *Oracle) CrossCheck() error {
	got := o.Deadlocked()
	if o.ref == nil {
		o.ref = &Oracle{f: o.f}
	}
	o.ref.cands = o.cands
	o.ref.Invalidate()
	want := o.ref.Deadlocked()
	if len(got) != len(want) {
		return fmt.Errorf("deadlock: incremental set has %d members, rebuild %d (missed change report)",
			len(got), len(want))
	}
	for i, id := range want {
		if got[i] != id {
			return fmt.Errorf("deadlock: incremental set diverges at index %d: incremental %d, rebuild %d (missed change report)",
				i, got[i], id)
		}
	}
	return nil
}
