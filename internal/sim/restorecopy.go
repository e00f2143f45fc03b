package sim

import (
	"fmt"

	"wormnet/internal/rng"
	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/stats"
)

// The restore copy: Restore's fast path for bytes it has just decoded.
//
// The model checker restores the same parent snapshot before each of a
// parent's sibling trials, and decoding it — range checks, worm walks, the
// fabric's occupancy rebuilt through addOccupied — is most of a trial's cost
// for a one-cycle difference. So a successful decode keeps, by value, the
// state it produced: every engine field the decoder writes, the fabric's share
// (router.FabricCopy) and the histograms' samples, with the source bytes. A
// later Restore of byte-identical input puts that state back by slice copies.
//
// What the copy does not hold it rebuilds exactly as the decoder does: the
// deferred-arrival lists emptied, the route memos empty, the fabric's
// generation bumped and the oracle's cached set invalidated. The two sections
// owned by components behind interfaces — the detector and the recovery
// engine — are decoded again, from the same bytes, by their own restore
// methods: the copy records only where each section starts and ends. So the
// byte decoder stays the only reader of snapshot bytes, and the copy holds
// nothing the decode did not produce from those very bytes.

// restoreCopy is the state the last successful decode produced. src is empty
// when there is none.
type restoreCopy struct {
	src []byte

	now                 int64
	st, base, end       stats.Counters
	lat, delay, detLat  stats.Histogram
	fab                 router.FabricCopy
	queued              []router.MsgID // every source queue, front to back, node by node
	queueLen            []int32
	neBits              []uint64
	pending, pendingNew []router.MsgID
	injecting           []router.MsgID
	inFlight            int
	genDue              []int64
	genHeap             []int32
	nodeRng             []rng.Source
	rnd                 rng.Source
	oracleSeen          []int64
	oracleSize          int

	// Offsets into src, recorded by restoreBody: the detector's section is
	// src[detAt:detEnd] and the recovery engine's src[recAt:].
	detAt, detEnd, recAt int
}

// saveCopy records the state a successful decode of src just produced.
func (e *Engine) saveCopy(src []byte) {
	c := e.saved
	c.now = e.now
	c.st, c.base, c.end = e.st, e.base, e.end
	c.lat.CopyFrom(e.latHist)
	c.delay.CopyFrom(e.delayHist)
	c.detLat.CopyFrom(e.detLatHist)
	e.fab.CopyTo(&c.fab)
	c.queued, c.queueLen = c.queued[:0], c.queueLen[:0]
	for node := range e.queues {
		q := &e.queues[node]
		for i := 0; i < q.Len(); i++ {
			c.queued = append(c.queued, q.At(i))
		}
		c.queueLen = append(c.queueLen, int32(q.Len()))
	}
	c.neBits = append(c.neBits[:0], e.neBits...)
	c.pending = append(c.pending[:0], e.pending...)
	c.pendingNew = append(c.pendingNew[:0], e.pendingNew...)
	c.injecting = append(c.injecting[:0], e.injecting...)
	c.inFlight = e.inFlight
	c.genDue = append(c.genDue[:0], e.genDue...)
	c.genHeap = append(c.genHeap[:0], e.genHeap...)
	c.nodeRng = append(c.nodeRng[:0], e.nodeRng...)
	c.rnd = *e.rnd
	c.oracleSeen = append(c.oracleSeen[:0], e.oracleSeen...)
	c.oracleSize = e.oracleSize
	c.src = append(c.src[:0], src...)
}

// loadCopy is Restore of the bytes the copy was taken from. An error can only
// come from a component decoding its section differently the second time,
// which would be a bug in that component; the copy is dropped all the same.
func (e *Engine) loadCopy(src []byte) error {
	c := e.saved
	e.now = c.now
	e.st, e.base, e.end = c.st, c.base, c.end
	e.latHist.CopyFrom(&c.lat)
	e.delayHist.CopyFrom(&c.delay)
	e.detLatHist.CopyFrom(&c.detLat)
	e.fab.CopyFrom(&c.fab)
	at := 0
	for node := range e.queues {
		q := &e.queues[node]
		q.head, q.n = 0, 0
		for _, id := range c.queued[at : at+int(c.queueLen[node])] {
			q.Push(id)
		}
		at += int(c.queueLen[node])
	}
	copy(e.neBits, c.neBits)
	e.pending = append(e.pending[:0], c.pending...)
	e.pendingNew = append(e.pendingNew[:0], c.pendingNew...)
	e.injecting = append(e.injecting[:0], c.injecting...)
	e.inFlight = c.inFlight
	copy(e.genDue, c.genDue)
	e.genHeap = append(e.genHeap[:0], c.genHeap...)
	e.genDefA, e.genDefB = e.genDefA[:0], e.genDefB[:0]
	copy(e.nodeRng, c.nodeRng)
	*e.rnd = c.rnd
	for len(e.oracleSeen) < len(c.oracleSeen) {
		e.oracleSeen = append(e.oracleSeen, -1)
	}
	for i := copy(e.oracleSeen, c.oracleSeen); i < len(e.oracleSeen); i++ {
		e.oracleSeen[i] = -1
	}
	e.oracleSize = c.oracleSize
	e.oracle.Invalidate()

	// The components' own sections, in the decoder's order, each after the
	// fabric it checks itself against.
	var err error
	if e.caps.Restore != nil {
		err = e.caps.Restore(src[c.detAt:c.detEnd])
	}
	if err == nil {
		err = e.decodeSection(src[c.recAt:], e.rec.RestoreSnapshot)
	}
	if err != nil {
		c.src = c.src[:0]
		return fmt.Errorf("sim: restoring snapshot: %w", err)
	}
	return nil
}

// decodeSection runs one component's decoder over exactly its section.
func (e *Engine) decodeSection(sec []byte, decode func(*snap.Reader)) error {
	e.rd = snap.NewReader(sec)
	decode(&e.rd)
	err := e.rd.Done()
	e.rd = snap.Reader{}
	return err
}
