package sim

import "wormnet/internal/router"

// AppendSchedState appends the engine's scheduling-order state — everything
// outside the fabric, the detector and the recovery engine that influences
// future behavior — to buf in a canonical byte encoding, and returns the
// extended slice. The model checker (internal/mc) folds it into its state
// hash; two states with equal encodings (together with the fabric, detector,
// recovery and driver encodings) behave identically under identical future
// choices.
//
// Included, in order: the routable-header list (pending), the headers that
// become routable next cycle (pendingNew), each node's source queue, the
// in-progress injection list, and the recovery engine's active list.
// List order is behavioral: pending order fixes the routing order, queue order fixes admission order, injection-list order fixes
// source-feed order.
//
// Deliberately excluded (stale or unobservable at a cycle boundary):
// the per-cycle scratch (transmitted links, used crossbar inputs, the
// oracle's ran-this-cycle flag: rewritten before next use), the per-link
// round-robin pointers (pinned at their initial value under a Chooser — see
// Chooser), RNG streams (unused at Load 0 under a Chooser), and all absolute
// cycle stamps (the checker's encodings are age-clamped where ages are
// behavioral).
func (e *Engine) AppendSchedState(buf []byte) []byte {
	buf = appendIDList16(buf, e.pending)
	buf = appendIDList16(buf, e.pendingNew)
	for n := range e.queues {
		q := &e.queues[n]
		buf = append(buf, byte(q.Len()))
		for i := 0; i < q.Len(); i++ {
			buf = append(buf, byte(q.At(i)), byte(q.At(i)>>8))
		}
	}
	buf = appendIDList16(buf, e.injecting)
	buf = append(buf, byte(e.rec.Active()))
	buf = e.rec.AppendActive(buf)
	return buf
}

// appendIDList16 appends a length byte followed by each ID as two
// little-endian bytes (message pools on model-checked fabrics are tiny; -1
// sentinels survive as 0xffff).
func appendIDList16(buf []byte, ids []router.MsgID) []byte {
	buf = append(buf, byte(len(ids)))
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8))
	}
	return buf
}
