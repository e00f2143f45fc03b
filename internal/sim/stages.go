package sim

import (
	"math/bits"

	"wormnet/internal/router"
	"wormnet/internal/trace"
)

// The stages of one simulation cycle.
//
// Step runs them in a fixed order on the calling goroutine: generate, admit,
// transfer (decide, then commit), drain, the detector's EndCycle, routing
// (engine.go), feed. Each stage applies its side effects —
// message allocation, trace records, counters, detector notifications — as it
// meets each item, and it meets them in canonical order: every fabric-derived
// set it consumes is a bitmap scanned word-ascending, bit-ascending, or a heap
// with a node tie-break, so nodes, VCs and links arrive ascending and nothing
// is sorted (the occupied-VC bitmap yields VCs ascending, so each target
// link's feeders arrive ascending too).
//
// Transfer is the one stage split in two: arbitration reads the pre-cycle
// credit of every target buffer, so every output link is decided before any
// flit moves.

// phaseID names the four stages the kernel drives from active sets — the ones
// the full-rescan reference in sparse_test.go can stand in for (see
// Engine.refStage). An int dispatch (not closures) keeps Step allocation-free.
type phaseID uint8

const (
	phaseGenerate phaseID = iota
	phaseAdmit
	phaseTransferDecide
	phaseDrain
)

// runPhase runs stage ph, or the installed reference's rescan in its place.
func (e *Engine) runPhase(ph phaseID) {
	if e.refStage != nil && e.refStage(ph) {
		return
	}
	switch ph {
	case phaseGenerate:
		e.generate()
	case phaseAdmit:
		e.admit()
	case phaseTransferDecide:
		e.transferDecide()
	case phaseDrain:
		e.drain()
	}
}

// ---------------------------------------------------------------------------
// Stage 1: message generation.
//
// Each node draws from its own per-node RNG stream against its current queue
// depth; an arrival allocates the message from the shared pool and pushes it
// onto the node's source queue at once. Nodes are visited in ascending order,
// so messages leave the pool in node order.
//
// The per-cycle Bernoulli trial is replaced by a geometric inter-arrival
// countdown (traffic.Generator.NextGap): genDue[node] is the cycle of the
// node's next arrival, advanced by one Geometric draw per arrival instead of
// one uniform draw per cycle. A node whose source queue is full when its
// arrival comes due defers to the next cycle WITHOUT consuming a draw —
// exactly the per-cycle semantics, where a full queue skips the trial
// entirely. The scheduled nodes sit in a (due, node) min-heap and only the
// nodes due this cycle are visited; the heap's node tie-break makes the pop
// order node-ascending, so arrivals happen in the order a scan of every
// node's countdown would produce (the test reference does exactly that scan,
// over the identical stream).
//
// Deferred arrivals stay OUT of the heap: at saturation every node defers
// every cycle, and re-heaping the whole population each cycle is exactly
// the O(nodes log nodes) churn the active sets exist to avoid. Instead
// a deferral lands on the genDefB list and is replayed next cycle from
// genDefA (the buffers swap at the end of the stage). genDefA is
// node-ascending by construction — deferrals are appended in processing
// order, and every deferred node shares the same due cycle — and the heap
// never holds a node due before now, so an ascending two-way merge of
// genDefA with the heap's due-now pops reproduces the canonical
// node-ascending arrival order.

func (e *Engine) generate() {
	max := e.cfg.MaxSourceQueue
	// Merge last cycle's deferrals (all due now, node-ascending) with the
	// heap's due-now pops (node-ascending by the heap tie-break) into one
	// node-ascending pass. A node processed here re-enters either the heap
	// (arrival happened, next gap drawn) or genDefB (queue still full), so
	// the two sources stay disjoint.
	def := e.genDefA
	di := 0
	for {
		hn := int32(-1)
		if len(e.genHeap) > 0 && e.genDue[e.genHeap[0]] <= e.now {
			hn = e.genHeap[0]
		}
		var node int
		switch {
		case di < len(def) && (hn < 0 || def[di] < hn):
			node = int(def[di])
			di++
		case hn >= 0:
			node = int(e.heapPop())
		default:
			e.genDefA, e.genDefB = e.genDefB, e.genDefA[:0]
			return
		}
		if e.generateArrival(node, max) {
			e.genDefB = append(e.genDefB, int32(node))
		} else if e.genDue[node] >= 0 {
			e.heapPush(int32(node))
		}
	}
}

// generateArrival handles one due arrival at node: defer on a full queue
// (due = now+1, no draw consumed, reported to the caller), otherwise enqueue
// the arrival and draw the next gap. The test reference's full scan calls it
// too, so the stream cannot diverge between the two.
func (e *Engine) generateArrival(node, max int) (deferred bool) {
	if e.queues[node].Len() >= max {
		e.genDue[node] = e.now + 1
		return true
	}
	r := &e.nodeRng[node]
	dst, length := e.gen.Arrive(node, r)
	e.enqueueNew(node, dst, length)
	gap, ok := e.gen.NextGap(node, r)
	if !ok {
		e.genDue[node] = -1
		return false
	}
	e.genDue[node] = e.now + 1 + int64(gap)
	return false
}

// enqueueNew allocates a fresh message and pushes it onto node's source
// queue.
func (e *Engine) enqueueNew(node, dst, length int) *router.Message {
	m := e.fab.NewMessage(node, dst, length, e.now)
	m.Phase = router.PhaseQueued
	e.queuePush(node, m.ID)
	e.st.Generated++
	return m
}

// ---------------------------------------------------------------------------
// Stage 2: injection admission (with the injection-limitation mechanism).

// admit admits queued messages into injection VCs. It visits only the
// nonempty source queues, scanning the bitmap word-ascending, bit-ascending —
// node-ascending, the order a scan of every node produces by skipping empty
// queues. Each word is copied before its bits are walked: an admission that
// empties a queue clears that node's live bit mid-stage (queueDrained), and
// the stage must still finish the nodes that were nonempty when it started.
// No bit is ever set during the stage (admission only pops queues), so the
// copies cannot go stale the other way.
func (e *Engine) admit() {
	for w, word := range e.neBits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			e.admitNode(w<<6 + b)
		}
	}
}

func (e *Engine) admitNode(node int) {
	fab := e.fab
	limit := e.cfg.InjectionLimit
	q := &e.queues[node]
	if q.Len() == 0 {
		return
	}
	// The injection-limitation check must be re-evaluated per admission,
	// not once per node: a router with several injection ports would
	// otherwise admit up to InjPorts messages in the cycle the busy
	// count is still at the threshold, overshooting the limit. Each
	// message admitted this cycle will occupy a network output VC before
	// the count is observed again, so it is charged immediately.
	busy := 0
	if limit >= 0 {
		busy = fab.BusyNetOutputVCs(node)
	}
	for p := 0; p < e.cfg.Router.InjPorts && q.Len() > 0; p++ {
		if limit >= 0 && busy > limit {
			break
		}
		l := fab.InjLink(node, p)
		vc := fab.FreeVC(l)
		if vc == router.NilVC {
			continue
		}
		m := fab.Msg(q.Pop())
		busy++
		m.Phase = router.PhaseNetwork
		m.InjLink = l
		m.InjectTime = e.now
		m.LastSourceFlit = e.now
		fab.Allocate(m, router.NilVC, vc)
		m.HeadVC = vc
		e.injecting = append(e.injecting, m.ID)
		e.inFlight++
		e.tr.Emit(trace.KindInject, m.ID, l, int32(node), int64(m.Length), int32(m.Dst))
		e.tr.Emit(trace.KindVCAlloc, m.ID, l, int32(node), 0, int32(vc))
		e.st.Injected++
	}
	if q.Len() == 0 {
		e.queueDrained(node)
	}
}

// ---------------------------------------------------------------------------
// Stage 3: flit transfer (crossbar + channel).
//
// transferDecide arbitrates every output link against pre-cycle state:
// nothing is mutated except arbitration state (round-robin pointers, the
// used crossbar inputs, the transmitted list), so every decision sees the
// credit each target buffer had when the cycle began. transferCommit then applies
// the decided moves in decision order. Constraints: at most one flit crosses
// each physical channel per cycle, and at most one flit leaves each input
// physical channel per cycle (the crossbar port).

func (e *Engine) transferDecide() {
	fab := e.fab
	vcs := fab.VCs
	e.txLinks = e.txLinks[:0]
	e.moves = e.moves[:0]
	buf := int32(fab.Cfg.BufFlits)
	stride := e.feedStride
	// Bucket transfer requests by target physical channel, marking each
	// target in the active-link bitmap. The set is unconditional —
	// re-marking an already-active link is idempotent and cheaper than the
	// poorly predicted first-feeder branch it would take to avoid. The
	// summary → word → bit walk over the occupied VCs is VCID-ascending, so
	// every feeder row fills in the order arbitration is defined over. The
	// key bit position encodes the canonical arbitration position
	// (precomputed in linkKey) — routers ascending, network output links
	// before delivery ports, each in port order — NOT raw LinkID order: the
	// crossbar-input constraint (inputUsed) couples the arbitrations of one
	// router's outputs, so the order links are decided in is part of the
	// determinism contract.
	words, summary := fab.OccupiedBits()
	for sw, sum := range summary {
		for ; sum != 0; sum &= sum - 1 {
			w := sw<<6 + bits.TrailingZeros64(sum)
			for word := words[w]; word != 0; word &= word - 1 {
				i := router.VCID(w<<6 + bits.TrailingZeros64(word))
				if vcs[i].Flits > 0 && vcs[i].Next != router.NilVC {
					tl := vcs[vcs[i].Next].Link
					key := e.linkKey[tl]
					e.keyBits[key>>6] |= 1 << (key & 63)
					n := e.feedN[tl]
					e.feed[int(tl)*stride+int(n)] = i
					e.feedN[tl] = n + 1
				}
			}
		}
	}
	if e.cfg.Debug {
		e.auditFeedRows()
	}
	// Arbitrate only the links that acquired feeders. The word-ascending,
	// bit-ascending scan IS the canonical key order, so no sort is needed;
	// each word is consumed from a copy and cleared for the next cycle before
	// its bits are decoded (arbitration never adds feeders, so no bit can be
	// set mid-scan), and each row's count is zeroed as the row is handed over.
	for w, word := range e.keyBits {
		if word == 0 {
			continue
		}
		e.keyBits[w] = 0
		for ; word != 0; word &= word - 1 {
			tl := e.keyLink[w<<6+bits.TrailingZeros64(word)]
			n := int(e.feedN[tl])
			e.feedN[tl] = 0
			e.arbitrate(tl, e.feed[int(tl)*stride:][:n], buf)
		}
	}
}

// arbitrate picks at most one winner among req, target link tl's feeders in
// ascending order: round-robin from the link's pointer, skipping feeders
// without credit at the target buffer or whose input channel already sent
// this cycle. A single feeder — the overwhelmingly common case at low load —
// costs one probe and no modulo (RR()%1 is always 0). The pointer advances
// only on a grant.
func (e *Engine) arbitrate(tl router.LinkID, req []router.VCID, buf int32) {
	if e.chooser != nil {
		e.arbitrateChoose(tl, req, buf)
		return
	}
	fab := e.fab
	vcs := fab.VCs
	link := &fab.Links[tl]
	n := len(req)
	j := 0
	if n > 1 {
		j = int(link.RR()) % n
	}
	for range n {
		u := req[j]
		if j++; j == n {
			j = 0
		}
		uv := &vcs[u]
		if vcs[uv.Next].Flits >= buf {
			continue // no credit at the target buffer
		}
		if e.inputUsed[uv.Link] {
			continue // crossbar input port already used this cycle
		}
		e.grant(tl, u)
		link.AdvanceRR()
		return
	}
}

// grant records u as the winner of target link tl's arbitration.
func (e *Engine) grant(tl router.LinkID, u router.VCID) {
	e.moves = append(e.moves, u)
	e.inputUsed[e.fab.VCs[u].Link] = true
	e.txLinks = append(e.txLinks, tl)
}

// transferCommit moves one flit per decided winner and frees the winner's
// input channel for the next cycle. A header that reaches a new router must
// route again, one cycle from now; a tail releases its VC, which is traced
// and reported to the detector.
func (e *Engine) transferCommit() {
	fab := e.fab
	for _, u := range e.moves {
		occ := fab.VCs[u].Occupant
		v := fab.VCs[u].Next
		e.inputUsed[fab.VCs[u].Link] = false
		header, tail := fab.MoveFlit(u)
		if header {
			m := fab.Msg(occ)
			m.HeadVC = v
			if fab.Links[fab.LinkOfVC(v)].Kind != router.DeliveryLink &&
				m.Phase == router.PhaseNetwork {
				m.Attempts = 0
				e.pendingNew = append(e.pendingNew, m.ID)
			}
		}
		if tail {
			fab.Msg(occ).TailVC = v
			l := fab.LinkOfVC(u)
			e.tr.Emit(trace.KindVCFree, occ, l, -1, 0, int32(u))
			e.det.VCFreed(l)
		}
	}
}

// ---------------------------------------------------------------------------
// Stage 4: delivery ports drain one flit per cycle into the local node.
//
// The stage iterates the tail of the occupied-VC bitmap instead of every
// delivery port: delivery VCs are the highest VCIDs, numbered in link order
// (node-major, port-minor), so the word-ascending, bit-ascending scan from
// the first delivery VC up reproduces the port-by-port scan order exactly —
// no sort. Each word is copied before its bits are walked: draining a tail
// releases the VC, which clears that VC's live bit (ReleaseEmptyVC)
// mid-iteration, and nothing sets bits during the stage.

func (e *Engine) drain() {
	fab := e.fab
	words, _ := fab.OccupiedBits()
	first := int(fab.FirstDeliveryVC())
	for w := first >> 6; w < len(words); w++ {
		word := words[w]
		if w == first>>6 {
			word &= ^uint64(0) << (first & 63) // injection VCs sharing the word
		}
		for ; word != 0; word &= word - 1 {
			id := router.VCID(w<<6 + bits.TrailingZeros64(word))
			if fab.VCs[id].Flits == 0 {
				continue // allocated but no flit buffered yet
			}
			e.drainVC(id)
		}
	}
}

// drainVC consumes one flit from occupied delivery VC id, releasing the VC
// and delivering the message once the tail is consumed.
func (e *Engine) drainVC(id router.VCID) {
	fab := e.fab
	vc := &fab.VCs[id]
	m := fab.Msg(vc.Occupant)
	tail := vc.HasTail && vc.Flits == 1
	vc.Flits--
	m.Consumed++
	if vc.HasHeader {
		vc.HasHeader = false
		m.HeadVC = router.NilVC
	}
	if !tail {
		return
	}
	fab.ReleaseEmptyVC(id)
	m.TailVC = router.NilVC
	e.deliver(m)
}

// ---------------------------------------------------------------------------
// Stage 6: sources push flits of admitted messages into injection buffers.
// A message's first feed always happens in its admission cycle (the injection
// buffer is empty and at least one flit deep), so the headers fed this cycle
// join pendingNew in admission order.

func (e *Engine) feedSources() {
	fab := e.fab
	kept := e.injecting[:0]
	for _, id := range e.injecting {
		m := fab.Msg(id)
		if m.Phase == router.PhaseDelivered || m.Phase == router.PhaseAborted ||
			m.Phase == router.PhaseQueued {
			continue // recovered or delivered while still on the list
		}
		if m.Injected >= m.Length {
			continue // tail already in the network
		}
		l := m.InjLink
		vc := fab.VCOf(l, 0)
		if vc.Occupant != m.ID {
			// The injection VC was released (regressive recovery); drop.
			continue
		}
		if vc.Flits < int32(fab.Cfg.BufFlits) {
			first := m.Injected == 0
			m.Injected++
			vc.Flits++
			m.LastSourceFlit = e.now
			if first {
				vc.HasHeader = true
				e.pendingNew = append(e.pendingNew, m.ID)
			}
			if m.Injected == m.Length {
				vc.HasTail = true
			}
		}
		if m.Injected < m.Length {
			kept = append(kept, id)
		}
	}
	e.injecting = kept
}
