package sim

import (
	"bytes"
	"fmt"

	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/stats"
)

// Snapshot and Restore: an exact byte encoding of an engine between two
// cycles.
//
// What a snapshot holds is everything that influences the engine's future
// behaviour or the results it will report: the cycle counter, the whole-run
// counters with their readings at the window's start and end (base, end) once
// each has been taken, the three histograms, the fabric
// (router.Fabric.AppendSnapshot: message pool and free-list order, occupied
// VCs, round-robin pointers), the source queues, the pending, pendingNew and
// injecting lists, the generator schedule (every node's next arrival cycle,
// every node's random stream, the shared stream), the oracle's
// first-sighting stamps and the size of the set it last found, the detector
// (detect.Capabilities.Snapshot; nil means stateless) and the recovery
// engine.
//
// What it does not hold is whatever can be recomputed, and Restore recomputes
// it through the code that maintains it while the engine runs, so a restored
// engine cannot disagree with itself: the fabric's occupancy structures
// (router.Fabric.RestoreSnapshot), the nonempty-queue bitmap (queuePush), the
// arrival heap and deferred lists (every scheduled node is pushed back on the
// heap — the two containers are interchangeable, generate merges them in node
// order), inFlight (recounted from message phases), the detector's flags and
// flag counts, the route memos (left empty; a lookup refills one) and the
// oracle's wait-for graph (rebuilt from scratch at its next evaluation). Nor does it hold a cycle's scratch — the
// transmitted links, the used crossbar inputs, whether the oracle has run —
// which the next Step rewrites before reading, or the probes-in-flight
// gauge, which Step sets before anything reads it; Restore leaves them as
// they are.
//
// Outside the snapshot altogether are the observation rails — the flight
// recorder, the metrics collector and whatever observes them (forensics).
// They belong to whoever attached them: an engine restored into keeps its own,
// and a caller who wants one continuous trace across a Snapshot/Restore pair
// hands the same recorder to both engines.
//
// The header carries a magic number, a format version and the engine's
// configuration fingerprint (fingerprint, below); Restore refuses bytes whose
// header differs from what the restoring engine would write (DESIGN.md §15
// has the version history).

const (
	snapMagic   = "WSNP"
	snapVersion = 5
)

// fingerprint describes every part of the configuration that shapes the
// state or decides what the engine does next, as text, so that a refused
// Restore can say what differs. It is built on first use: an engine that is
// never snapshotted does not pay for it.
func (e *Engine) fingerprint() []byte {
	if e.snapID == nil {
		c := &e.cfg
		e.snapID = fmt.Appendf(nil,
			"k=%d n=%d vcs=%d buf=%d inj=%d del=%d routing=%s detector=%s process=%s load=%g recovery=%s "+
				"inject-limit=%d max-queue=%d warmup=%d measure=%d oracle-every=%d seed=%d chooser=%t retain=%t",
			c.K, c.N, c.Router.VCsPerLink, c.Router.BufFlits, c.Router.InjPorts, c.Router.DelPorts,
			e.alg.Name(), e.det.Name(), e.gen.Name(), c.Load, c.Recovery,
			c.InjectionLimit, c.MaxSourceQueue, c.Warmup, c.Measure, c.OracleEvery, c.Seed,
			c.Chooser != nil, c.RetainMessages)
	}
	return e.snapID
}

// Fingerprint returns the fingerprint an engine built from cfg stamps on its
// snapshots: the one text that says exactly which run a snapshot, or a
// sweep journal's record, belongs to. It builds the engine to ask it, without
// cfg's rails, which the fingerprint does not cover.
func Fingerprint(cfg Config) (string, error) {
	cfg.Trace, cfg.Metrics = nil, nil
	e, err := New(cfg)
	if err != nil {
		return "", err
	}
	return string(e.fingerprint()), nil
}

// Snapshot appends the engine's state to dst and returns the extended slice.
// It must be called between Steps. The encoding is deterministic — equal
// states give equal bytes — and Snapshot does not allocate once dst has the
// capacity.
func (e *Engine) Snapshot(dst []byte) []byte {
	id := e.fingerprint()
	dst = append(dst, snapMagic...)
	dst = snap.U32(dst, snapVersion)
	dst = snap.U32(dst, uint32(len(id)))
	dst = append(dst, id...)
	return e.appendState(dst, snap.Exact)
}

// AppendCanonical appends the engine's canonical state to dst: the model
// checker's state key (internal/mc). Two engines of one configuration, under
// a Chooser, whose canonical bytes are equal take the same steps and reach
// equal canonical bytes again under equal choices; their traces may differ
// only in the attempt counts past 2 that route-fail events report and in the
// oracle-deadlock events the first-sighting stamps gate
// (FuzzCanonicalEquality). It is written by the same code as Snapshot, in
// snap.Mode's canonical integers, and is never read back.
//
// What it holds: the live messages' transport state (router.Fabric's
// canonical mode: Attempts clamped at 2), the occupied virtual channels, the
// source queues and the pending, pendingNew and injecting lists in order (the
// pending order fixes the routing order, a queue's order the admission order,
// the injecting order the source-feed order), the detector's canonical state
// (detect.Capabilities.Snapshot: NDM and PDM counters clamped just past T2 or
// the threshold; CMH's blocked ages clamped at InitDelay, its wave ages at
// ReprobeEvery with the wave-predates-blocking bit, its victim generations as
// freshness and rank) and the recovery engine's absorption list.
//
// What it leaves out, with the reason:
//   - the header and fingerprint: keys are compared within one configuration
//     (and AppendCanonical never builds the fingerprint);
//   - telemetry, which no decision reads: the cycle number, the whole-run
//     counters and their window readings, the three histograms, CMH's probe
//     totals and the absorbed-flit total;
//   - what a Chooser pins: the per-node and shared random streams and the
//     generator's due cycles (Load is 0, so generation never fires) and the
//     links' round-robin pointers (never advanced: the chooser arbitrates);
//   - the free list's order and the free pool slots: the key counts states
//     that differ only there as one;
//   - the oracle's first-sighting stamps and the size of its last set, which
//     only feed telemetry and the trace;
//   - absolute time stamps on messages (generated, injected, blocked since,
//     ...) and CMH's path digest, which is carried but never compared: where
//     a stamp decides anything, a detector writes it as a clamped age.
//
// Per-cycle scratch is in neither encoding (see Snapshot).
func (e *Engine) AppendCanonical(dst []byte) []byte {
	return e.appendState(dst, snap.Mode{Canonical: true, Now: e.now})
}

// appendState writes everything after Snapshot's header, in mode m.
func (e *Engine) appendState(dst []byte, m snap.Mode) []byte {
	if !m.Canonical {
		dst = snap.I64(dst, e.now)
		dst = e.st.AppendSnapshot(dst)
		if e.now > e.cfg.Warmup {
			dst = e.base.AppendSnapshot(dst)
		}
		if e.now > e.cfg.Warmup+e.cfg.Measure {
			dst = e.end.AppendSnapshot(dst)
		}
		dst = e.latHist.AppendSnapshot(dst)
		dst = e.delayHist.AppendSnapshot(dst)
		dst = e.detLatHist.AppendSnapshot(dst)
	}
	dst = e.fab.AppendSnapshot(dst, m)

	for n := range e.queues {
		q := &e.queues[n]
		dst = m.U32(dst, uint32(q.Len()))
		for i := 0; i < q.Len(); i++ {
			dst = m.I32(dst, int32(q.At(i)))
		}
	}
	dst = snap.IDs(m, dst, e.pending)
	dst = snap.IDs(m, dst, e.pendingNew)
	dst = snap.IDs(m, dst, e.injecting)

	if m.Canonical {
		if e.caps.Snapshot != nil {
			dst = e.caps.Snapshot(dst, m)
		}
		return e.rec.AppendSnapshot(dst, m)
	}

	dst = snap.I64s(dst, e.genDue)
	for i := range e.nodeRng {
		dst = e.nodeRng[i].AppendSnapshot(dst)
	}
	dst = e.rnd.AppendSnapshot(dst)

	at, n := len(dst), 0
	dst = snap.U32(dst, 0)
	for id, seen := range e.oracleSeen {
		if seen >= 0 {
			dst = snap.I32(dst, int32(id))
			dst = snap.I64(dst, seen)
			n++
		}
	}
	snap.PutU32(dst, at, uint32(n))
	dst = snap.I64(dst, int64(e.oracleSize))

	at = len(dst)
	dst = snap.U32(dst, 0)
	if e.caps.Snapshot != nil {
		dst = e.caps.Snapshot(dst, m)
	}
	snap.PutU32(dst, at, uint32(len(dst)-at-4))
	return e.rec.AppendSnapshot(dst, m)
}

// Restore replaces the engine's state with a snapshot taken from an engine of
// the same configuration — this one at another cycle (earlier or later), or
// another one built from an equal Config. The engine then continues exactly
// as the snapshotted one would have. Attached rails are left alone.
//
// Bytes that are truncated, carry another format version or another
// configuration's fingerprint, index outside the fabric, or describe worms,
// queues and lists that contradict one another are refused with an error,
// never a panic, and nothing is allocated beyond a small multiple of
// len(src) and, once, the engine's restore copy. After an error the engine is
// in an unspecified state: Restore a good snapshot or discard it.
//
// A successful decode leaves a copy of what it produced, and a later Restore
// of byte-identical input loads that copy instead of decoding again
// (restorecopy.go); a failed decode drops it.
func (e *Engine) Restore(src []byte) error {
	if e.saved == nil {
		e.saved = new(restoreCopy)
	}
	if len(e.saved.src) > 0 && bytes.Equal(src, e.saved.src) {
		return e.loadCopy(src)
	}
	e.saved.src = e.saved.src[:0]
	// The reader lives in the engine: it is handed to the process and the
	// detector behind interfaces, which would move a local one to the heap on
	// every call.
	e.rd = snap.NewReader(src)
	err := e.restore(&e.rd)
	e.rd = snap.Reader{}
	if err == nil {
		e.saveCopy(src)
	}
	return err
}

func (e *Engine) restore(r *snap.Reader) error {
	if magic := r.Bytes(len(snapMagic)); string(magic) != snapMagic {
		return fmt.Errorf("sim: not an engine snapshot (magic %q)", magic)
	}
	if v := r.U32(); v != snapVersion {
		return fmt.Errorf("sim: snapshot format version %d, this engine reads version %d", v, snapVersion)
	}
	if id := r.Bytes(r.Len(1)); !bytes.Equal(id, e.fingerprint()) {
		if err := r.Err(); err != nil {
			return fmt.Errorf("sim: snapshot header: %w", err)
		}
		return fmt.Errorf("sim: snapshot is of another configuration\n snapshot: %s\n engine:   %s", id, e.fingerprint())
	}
	e.restoreBody(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("sim: restoring snapshot: %w", err)
	}
	return nil
}

// restoreBody decodes everything after the header; errors stay in r.
func (e *Engine) restoreBody(r *snap.Reader) {
	e.now = r.I64()
	if e.now < 0 {
		r.Failf("sim: snapshot taken at cycle %d", e.now)
	}
	e.st.RestoreSnapshot(r)
	// A reading not yet taken is not in the snapshot (the fingerprint fixes
	// Warmup and Measure, so the cycle says which are): it is what New left.
	e.base = stats.Counters{Nodes: e.st.Nodes, NetLinks: e.st.NetLinks}
	e.end = e.base
	if e.now > e.cfg.Warmup {
		e.base.RestoreSnapshot(r)
	}
	if e.now > e.cfg.Warmup+e.cfg.Measure {
		e.end.RestoreSnapshot(r)
	}
	e.latHist.RestoreSnapshot(r)
	e.delayHist.RestoreSnapshot(r)
	e.detLatHist.RestoreSnapshot(r)
	e.fab.RestoreSnapshot(r)
	if r.Err() != nil {
		return
	}
	nMsgs := e.fab.NumMessages()

	// Source queues, through queuePush so the nonempty-queue bitmap follows.
	// listed marks the messages seen so far on a queue (bit 0) and on a header
	// list (bit 1): a message is queued at most once, pending at most once.
	e.clearListed(nMsgs)
	clear(e.neBits)
	queued := 0
	for node := range e.queues {
		q := &e.queues[node]
		q.head, q.n = 0, 0
		for n := r.Len(4); n > 0; n-- {
			id := router.MsgID(r.ID(0, nMsgs))
			if r.Err() != nil {
				return
			}
			if m := e.fab.Msg(id); m.Phase != router.PhaseQueued || m.Length == 0 || e.listed[id]&1 != 0 {
				r.Failf("sim: snapshot queues message %d at node %d, which is %s (%d flits) or already queued", id, node, m.Phase, m.Length)
				return
			}
			e.listed[id] |= 1
			e.queuePush(node, id)
			queued++
		}
	}
	e.pending = e.restoreHeaders(r, e.pending)
	e.pendingNew = e.restoreHeaders(r, e.pendingNew)
	e.injecting = snap.ReadIDs(r, e.injecting, 0, nMsgs)
	for _, id := range e.injecting {
		// feed indexes the fabric with the injection port of every listed
		// message that is still being fed.
		if m := e.fab.Msg(id); (m.Phase == router.PhaseNetwork || m.Phase == router.PhaseRecovering) && m.Injected < m.Length &&
			(m.InjLink == router.NilLink || e.fab.Links[m.InjLink].Kind != router.InjectionLink) {
			r.Failf("sim: snapshot lists message %d as injecting through link %d, not an injection port", id, m.InjLink)
			return
		}
	}

	inFlight := 0
	pooledQueued := 0
	e.fab.LiveMessages(func(m *router.Message) {
		switch m.Phase {
		case router.PhaseNetwork, router.PhaseRecovering:
			inFlight++
		case router.PhaseQueued:
			pooledQueued++
		}
	})
	e.inFlight = inFlight
	if pooledQueued != queued {
		r.Failf("sim: snapshot queues %d messages, %d are waiting at a source", queued, pooledQueued)
		return
	}

	// Generator schedule: the arrival heap is rebuilt from the due cycles.
	e.genHeap, e.genDefA, e.genDefB = e.genHeap[:0], e.genDefA[:0], e.genDefB[:0]
	for node := range e.genDue {
		due := r.I64()
		if due != -1 && due < e.now {
			r.Failf("sim: snapshot schedules node %d's next arrival at cycle %d, before cycle %d", node, due, e.now)
			return
		}
		e.genDue[node] = due
		if due >= 0 {
			e.heapPush(int32(node))
		}
	}
	for i := range e.nodeRng {
		e.nodeRng[i].RestoreSnapshot(r)
	}
	e.rnd.RestoreSnapshot(r)

	for i := range e.oracleSeen {
		e.oracleSeen[i] = -1
	}
	for n := r.Len(4 + 8); n > 0; n-- {
		id, seen := r.ID(0, nMsgs), r.I64()
		if r.Err() != nil {
			return
		}
		for int(id) >= len(e.oracleSeen) {
			e.oracleSeen = append(e.oracleSeen, -1)
		}
		e.oracleSeen[id] = seen
	}
	e.oracleSize = int(r.I64())
	if e.oracleSize < 0 || e.oracleSize > nMsgs {
		r.Failf("sim: snapshot says the oracle last found %d deadlocked messages, of %d pooled", e.oracleSize, nMsgs)
	}
	// The oracle's wait-for graph belongs to the state being replaced: its
	// next evaluation rebuilds it from scratch.
	e.oracle.Invalidate()

	det := r.Section()
	e.saved.detAt, e.saved.detEnd = r.Offset()-len(det), r.Offset()
	switch {
	case r.Err() != nil:
	case e.caps.Restore != nil:
		if err := e.caps.Restore(det); err != nil {
			r.Failf("%w", err)
		}
	case len(det) != 0:
		r.Failf("sim: snapshot carries %d bytes of detector state, %s keeps none", len(det), e.det.Name())
	}
	e.saved.recAt = r.Offset()
	e.rec.RestoreSnapshot(r)
}

// restoreHeaders reads one of the two header lists: pool members, each
// listed at most once across both (auditRouteMemos checks that).
func (e *Engine) restoreHeaders(r *snap.Reader, dst []router.MsgID) []router.MsgID {
	dst = snap.ReadIDs(r, dst, 0, e.fab.NumMessages())
	if r.Err() != nil {
		return dst
	}
	for _, id := range dst {
		if e.listed[id]&2 != 0 {
			r.Failf("sim: snapshot lists message %d's header as pending twice", id)
			break
		}
		e.listed[id] |= 2
	}
	return dst
}
