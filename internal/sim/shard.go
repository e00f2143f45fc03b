package sim

import (
	"math/bits"

	"wormnet/internal/metrics"
	"wormnet/internal/router"
	"wormnet/internal/trace"
)

// Sharded execution of one simulation cycle.
//
// The torus is split into Shards contiguous node blocks (topology.Partition)
// and every per-cycle stage runs as a two-phase barrier step: phase A
// computes decisions for each shard against previous-phase state without
// mutating anything another shard may read, phase B commits them. Stages
// whose side effects must interleave in one global order (message-pool
// allocation, trace emission, statistics, detector G/P transitions, the
// recovery engine) replay per-shard record lists on the serial spine between
// phases, concatenated in shard order.
//
// Ownership rules (see DESIGN.md §11):
//
//   - A link and its VCs are owned by the shard of Links[l].Dst — the router
//     at whose input the buffers sit. Occupancy structures are sharded the
//     same way (router.Fabric.SetPartition), so allocation and release are
//     shard-local.
//   - Arbitration state of an output link (round-robin pointer, transmitted
//     bitmap entry, txLinks membership, its row and count in the feeder
//     table) is owned by the shard of Links[l].Src: all feeder VCs of an
//     output link are input VCs at router Src, so the arbitrating shard is
//     the one that owns every feeder.
//   - Cross-shard flit arrivals (a winner whose target VC is owned by another
//     shard) are deferred as boundary moves and committed serially.
//
// Determinism: every phase iterates its shard's nodes in ascending order, and
// every fabric-derived set it consumes is a bitmap scanned word-ascending,
// bit-ascending, so it arrives in canonical order and nothing is sorted (the
// occupied-VC bitmap yields a shard's VCs ascending, so each target link's
// feeders arrive ascending too). The shard-order concatenation of per-shard
// record lists is therefore the global node-ascending sequence regardless of
// the shard count, which is what makes results byte-identical for every value
// of Config.Shards.

// phaseID enumerates the parallel phases of one cycle. An int dispatch (not
// closures) keeps the single-shard path allocation-free.
type phaseID uint8

const (
	phaseGenerate phaseID = iota
	phaseAdmit
	phaseTransferA
	phaseTransferB
	phaseDrain
	phaseRouteCands
	phaseFeed
)

// genRec is one generation decision awaiting serial commit.
type genRec struct {
	node, dst, length int32
}

// admitRec is one completed admission awaiting serial trace/counter replay.
type admitRec struct {
	id   router.MsgID
	link router.LinkID
	vc   router.VCID
	node int32
}

// freeRec is one VC release performed by a shard's transfer commit, awaiting
// serial trace emission and detector notification.
type freeRec struct {
	msg  router.MsgID
	link router.LinkID
	vc   router.VCID
}

// boundaryMove is the destination half of a flit transfer whose target VC is
// owned by another shard; it is applied on the serial spine.
type boundaryMove struct {
	v            router.VCID
	header, tail bool
}

// shardState is the per-shard slice of engine state plus the record lists
// one cycle's phases fill and the serial spine drains. All slices are
// retained and re-sliced to length zero each cycle, so steady-state
// operation does not allocate.
type shardState struct {
	lo, hi int // node range [lo, hi)

	gens      []genRec        // generate:  decisions for serial commit
	admits    []admitRec      // admit:     trace/counter replay records
	moves     []router.VCID   // transferA: winning source VCs, decision order
	bmoves    []boundaryMove  // transferB: deferred cross-shard arrivals
	frees     []freeRec       // transferB: VC releases for serial replay
	arrivals  []router.MsgID  // transferB: headers that reached a new router
	delivered []router.MsgID  // drain:     tails consumed at destination
	txLinks   []router.LinkID // transferA: links transmitted this cycle (Src-owned)
	injecting []router.MsgID  // persistent: messages this shard is injecting
	fed       []router.MsgID  // feed:      first flits fed this cycle

	// Active-set state (see the stage comments below). keyBits is the
	// shard's active-output-link bitmap: bit (node-lo)*span+k marks output
	// position k of router node as having acquired feeders this cycle, so a
	// word-ascending, bit-ascending scan visits the active links in
	// canonical arbitration order without sorting. genHeap is the shard's
	// (due, node) min-heap of scheduled generator arrivals; genDefA holds
	// the nodes whose arrival was deferred by a full queue last cycle (due
	// this cycle, node-ascending by construction), genDefB collects this
	// cycle's deferrals, and generateShard swaps the two at the end of the
	// stage.
	keyBits []uint64
	genHeap []int32
	genDefA []int32
	genDefB []int32

	// feedErr is the first failure auditFeedRows found (Debug only).
	feedErr error
}

// runPhase executes one phase across all shards: inline when there is a
// single shard (the default — no goroutines, no allocation), dispatched to
// the persistent shard workers otherwise. Shard 0 runs on the calling
// goroutine. The workers park on unbuffered phase channels between barrier
// steps, so the steady-state cost is two channel operations per worker per
// phase and zero allocations — the previous fork-join (a goroutine spawn
// plus a sync.WaitGroup per phase per cycle) allocated on every step.
func (e *Engine) runPhase(ph phaseID) {
	if len(e.shards) == 1 {
		e.runShardPhase(ph, 0)
		return
	}
	if e.workerCh == nil {
		e.startWorkers()
	}
	for _, ch := range e.workerCh {
		ch <- ph
	}
	e.runShardPhase(ph, 0)
	for range e.workerCh {
		<-e.workerDone
	}
}

// startWorkers launches one parked goroutine per shard beyond the first.
// Channel sends and receives carry the happens-before edges in both
// directions, so each worker's shard mutations are visible to the serial
// spine after the barrier and vice versa — the same guarantee the WaitGroup
// fork-join provided.
func (e *Engine) startWorkers() {
	e.workerCh = make([]chan phaseID, len(e.shards)-1)
	e.workerDone = make(chan struct{}, len(e.shards)-1)
	for i := range e.workerCh {
		ch := make(chan phaseID)
		e.workerCh[i] = ch
		s := i + 1
		go func() {
			for ph := range ch {
				e.runShardPhase(ph, s)
				e.workerDone <- struct{}{}
			}
		}()
	}
}

// StopWorkers terminates the persistent shard workers, if any are running.
// Run calls it on exit; callers driving a multi-shard engine through Step
// directly should call it when done stepping to avoid leaking parked
// goroutines. Safe to call repeatedly and on single-shard engines; the next
// multi-shard runPhase restarts the pool.
func (e *Engine) StopWorkers() {
	if e.workerCh == nil {
		return
	}
	for _, ch := range e.workerCh {
		close(ch)
	}
	e.workerCh = nil
	e.workerDone = nil
}

func (e *Engine) runShardPhase(ph phaseID, s int) {
	if e.refStage != nil && e.refStage(ph, s) {
		return
	}
	switch ph {
	case phaseGenerate:
		e.generateShard(s)
	case phaseAdmit:
		e.admitShard(s)
	case phaseTransferA:
		e.transferDecide(s)
	case phaseTransferB:
		e.transferCommit(s)
	case phaseDrain:
		e.drainShard(s)
	case phaseRouteCands:
		e.routeCandsShard(s)
	case phaseFeed:
		e.feedShard(s)
	}
}

// ---------------------------------------------------------------------------
// Stage 1: message generation.
//
// Phase A: each node draws from its own per-node RNG stream (so the draw
// sequence is independent of the shard count) against the pre-cycle queue
// depths; the only mutation is the node's own stream, its arrival countdown
// and, for stateful processes, per-source process state. Serial commit:
// allocate the messages from the shared pool in node-ascending order
// (canonical MsgID assignment) and push them onto the source queues.
//
// Processes that implement traffic.Skipahead replace the per-cycle Bernoulli
// trial with a geometric inter-arrival countdown: genDue[node] is the cycle
// of the node's next arrival, advanced by one Geometric draw per arrival
// instead of one uniform draw per cycle. A node whose source queue is full
// when its arrival comes due defers to the next cycle WITHOUT consuming a
// draw — exactly the per-cycle semantics, where a full queue skips the trial
// entirely. The scheduled nodes sit in a per-shard (due, node) min-heap and
// only the nodes due this cycle are visited; the heap's node tie-break makes
// the pop order node-ascending, so the gens record list is the one a scan of
// every node's countdown would produce (the test reference does exactly
// that scan, over the identical stream).
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

func (e *Engine) generateShard(s int) {
	sh := &e.shards[s]
	sh.gens = sh.gens[:0]
	max := e.cfg.MaxSourceQueue
	if e.genSkip == nil {
		// Stateful process (no skip-ahead capability): one draw per node
		// per cycle, advancing per-source process state every cycle.
		for node := sh.lo; node < sh.hi; node++ {
			if e.queues[node].Len() >= max {
				// Source queue full: generation pauses at this node (offered
				// load is capped, which is inevitable beyond saturation).
				continue
			}
			dst, length, ok := e.gen.Next(node, &e.nodeRng[node])
			if !ok {
				continue
			}
			sh.gens = append(sh.gens, genRec{node: int32(node), dst: int32(dst), length: int32(length)})
		}
		return
	}
	// Merge last cycle's deferrals (all due now, node-ascending) with the
	// heap's due-now pops (node-ascending by the heap tie-break) into one
	// node-ascending pass. A node processed here re-enters either the heap
	// (arrival happened, next gap drawn) or genDefB (queue still full), so
	// the two sources stay disjoint.
	def := sh.genDefA
	di := 0
	for {
		hn := int32(-1)
		if len(sh.genHeap) > 0 && e.genDue[sh.genHeap[0]] <= e.now {
			hn = sh.genHeap[0]
		}
		var node int
		switch {
		case di < len(def) && (hn < 0 || def[di] < hn):
			node = int(def[di])
			di++
		case hn >= 0:
			node = int(e.heapPop(sh))
		default:
			sh.genDefA, sh.genDefB = sh.genDefB, sh.genDefA[:0]
			return
		}
		if e.generateArrival(sh, node, max) {
			sh.genDefB = append(sh.genDefB, int32(node))
		} else if e.genDue[node] >= 0 {
			e.heapPush(sh, int32(node))
		}
	}
}

// generateArrival handles one due arrival at node: defer on a full queue
// (due = now+1, no draw consumed, reported to the caller), otherwise record
// the arrival and draw the next gap. The test reference's full scan calls it
// too, so the stream cannot diverge between the two.
func (e *Engine) generateArrival(sh *shardState, node, max int) (deferred bool) {
	if e.queues[node].Len() >= max {
		e.genDue[node] = e.now + 1
		return true
	}
	r := &e.nodeRng[node]
	dst, length := e.genSkip.Arrive(node, r)
	sh.gens = append(sh.gens, genRec{node: int32(node), dst: int32(dst), length: int32(length)})
	gap, ok := e.genSkip.NextGap(node, r)
	if !ok {
		e.genDue[node] = -1
		return false
	}
	e.genDue[node] = e.now + 1 + int64(gap)
	return false
}

func (e *Engine) commitGenerate() {
	for s := range e.shards {
		for _, g := range e.shards[s].gens {
			m := e.fab.NewMessage(int(g.node), int(g.dst), int(g.length), e.now)
			m.Phase = router.PhaseQueued
			e.queuePush(int(g.node), m.ID)
			e.mc.Inc(metrics.MGenerated)
			if e.measuring {
				e.st.Generated++
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Stage 2: injection admission (with the injection-limitation mechanism).
//
// The fabric commit (allocating the injection VC) runs in the parallel
// phase: injection links are owned by their node's shard, and the
// cross-shard reads the phase performs — the busy counts of the node's
// network output links for the injection-limitation check — are stable
// during the phase, since admission only ever allocates injection VCs.
// Trace emission and counters replay serially in node order.

// admitShard admits queued messages into injection VCs. It visits only the
// shard's nonempty source queues, scanning the bitmap word-ascending,
// bit-ascending — node-ascending, the order a scan of every node produces
// by skipping empty queues. Each word is copied before its
// bits are walked: an admission that empties a queue clears that node's
// live bit mid-stage (queueDrained), and the stage must still finish the
// nodes that were nonempty when it started. No bit is ever set during the
// stage (admission only pops queues), so the copies cannot go stale the
// other way.
func (e *Engine) admitShard(s int) {
	sh := &e.shards[s]
	sh.admits = sh.admits[:0]
	ne := e.neBits[s]
	for w, word := range ne {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			e.admitNode(sh, sh.lo+w<<6+b)
		}
	}
}

func (e *Engine) admitNode(sh *shardState, node int) {
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
		sh.injecting = append(sh.injecting, m.ID)
		sh.admits = append(sh.admits, admitRec{id: m.ID, link: l, vc: vc, node: int32(node)})
	}
	if q.Len() == 0 {
		// The stage emptied this queue: drop the node from its shard's
		// nonempty list (shard-local — the node belongs to this shard).
		e.queueDrained(node)
	}
}

func (e *Engine) commitAdmit() {
	for s := range e.shards {
		for _, a := range e.shards[s].admits {
			m := e.fab.Msg(a.id)
			e.inFlight++
			e.tr.Emit(trace.KindInject, a.id, a.link, a.node, int64(m.Length), int32(m.Dst))
			e.tr.Emit(trace.KindVCAlloc, a.id, a.link, a.node, 0, int32(a.vc))
			e.mc.Inc(metrics.MInjected)
			if e.measuring {
				e.st.Injected++
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Stage 3: flit transfer (crossbar + channel).
//
// Phase A (transferDecide) arbitrates every output link of the shard's
// routers against pre-cycle state: nothing is mutated except the shard's own
// arbitration state (round-robin pointers, crossbar-port stamps, transmitted
// bits), so reads of remote buffer occupancy are race-free. Phase B
// (transferCommit) applies the decided moves: the source half is always
// shard-local (feeders are input VCs at the arbitrating router); the
// destination half is applied inline when the target VC is shard-local and
// deferred as a boundary move otherwise. Constraints, as before: at most one
// flit crosses each physical channel per cycle, and at most one flit leaves
// each input physical channel per cycle (the crossbar port).

func (e *Engine) transferDecide(s int) {
	sh := &e.shards[s]
	fab := e.fab
	vcs := fab.VCs
	// Clear this shard's transmitted bits from the previous cycle.
	for _, l := range sh.txLinks {
		e.transmitted[l] = false
	}
	sh.txLinks = sh.txLinks[:0]
	sh.moves = sh.moves[:0]
	span := e.topo.Degree() + e.cfg.Router.DelPorts
	buf := int32(fab.Cfg.BufFlits)
	stride := e.feedStride
	// Bucket transfer requests by target physical channel, marking each
	// target in the shard's active-link bitmap. The set is unconditional —
	// re-marking an already-active link is idempotent and cheaper than the
	// poorly predicted first-feeder branch it would take to avoid. Every
	// feeder is an input VC at one of this shard's routers, so scanning the
	// shard's occupied VCs covers exactly the output links this shard
	// arbitrates; the summary → word → bit walk is VCID-ascending, so every
	// feeder row fills in the order arbitration is defined over. The key bit
	// position encodes the canonical arbitration position (precomputed in
	// linkKey) — routers ascending, network output links before delivery
	// ports, each in port order — NOT raw LinkID order: the crossbar-input
	// constraint (inputUsedAt) couples the arbitrations of one router's
	// outputs, so the order links are decided in is part of the determinism
	// contract.
	relBase := sh.lo * span
	words, summary := fab.OccupiedBitsShard(s)
	for sw, sum := range summary {
		for ; sum != 0; sum &= sum - 1 {
			w := sw<<6 + bits.TrailingZeros64(sum)
			for word := words[w]; word != 0; word &= word - 1 {
				i := router.VCID(w<<6 + bits.TrailingZeros64(word))
				if vcs[i].Flits > 0 && vcs[i].Next != router.NilVC {
					tl := vcs[vcs[i].Next].Link
					rel := int(e.linkKey[tl]) - relBase
					sh.keyBits[rel>>6] |= 1 << (rel & 63)
					n := e.feedN[tl]
					e.feed[int(tl)*stride+int(n)] = i
					e.feedN[tl] = n + 1
				}
			}
		}
	}
	if e.cfg.Debug {
		e.auditFeedRows(sh)
	}
	// Arbitrate only the links that acquired feeders. The word-ascending,
	// bit-ascending scan IS the canonical key order, so no sort is needed;
	// each word is consumed from a copy and cleared for the next cycle before
	// its bits are decoded (arbitration never adds feeders, so no bit can be
	// set mid-scan), and each row's count is zeroed as the row is handed over.
	for w, word := range sh.keyBits {
		if word == 0 {
			continue
		}
		sh.keyBits[w] = 0
		base := relBase + w<<6
		for ; word != 0; word &= word - 1 {
			tl := e.keyLink[base+bits.TrailingZeros64(word)]
			n := int(e.feedN[tl])
			e.feedN[tl] = 0
			e.arbitrate(sh, tl, e.feed[int(tl)*stride:][:n], buf)
		}
	}
}

// arbitrate picks at most one winner among req, target link tl's feeders in
// ascending order: round-robin from the link's pointer, skipping feeders
// without credit at the target buffer or whose input channel already sent
// this cycle. A single feeder — the overwhelmingly common case at low load —
// costs one probe and no modulo (RR()%1 is always 0). The pointer advances
// only on a grant.
func (e *Engine) arbitrate(sh *shardState, tl router.LinkID, req []router.VCID, buf int32) {
	if e.chooser != nil {
		e.arbitrateChoose(sh, tl, req, buf)
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
		in := uv.Link
		if e.inputUsedAt[in] == e.now {
			continue // crossbar input port already used this cycle
		}
		sh.moves = append(sh.moves, u)
		e.inputUsedAt[in] = e.now
		e.transmitted[tl] = true
		sh.txLinks = append(sh.txLinks, tl)
		link.AdvanceRR()
		return
	}
}

func (e *Engine) transferCommit(s int) {
	sh := &e.shards[s]
	fab := e.fab
	sh.bmoves = sh.bmoves[:0]
	sh.frees = sh.frees[:0]
	sh.arrivals = sh.arrivals[:0]
	for _, u := range sh.moves {
		occ := fab.VCs[u].Occupant
		v, header, tail := fab.MoveFlitSrc(u)
		if header {
			m := fab.Msg(occ)
			m.HeadVC = v
			if fab.Links[fab.LinkOfVC(v)].Kind != router.DeliveryLink &&
				m.Phase == router.PhaseNetwork {
				// The header reached a new router: it must route again, one
				// cycle from now.
				m.Attempts = 0
				sh.arrivals = append(sh.arrivals, m.ID)
			}
		}
		if tail {
			fab.Msg(occ).TailVC = v
			sh.frees = append(sh.frees, freeRec{msg: occ, link: fab.LinkOfVC(u), vc: u})
		}
		if fab.ShardOfLink(fab.LinkOfVC(v)) == s {
			fab.MoveFlitDst(v, header, tail)
		} else {
			sh.bmoves = append(sh.bmoves, boundaryMove{v: v, header: header, tail: tail})
		}
	}
}

func (e *Engine) commitTransfer() {
	fab := e.fab
	for s := range e.shards {
		for _, bm := range e.shards[s].bmoves {
			fab.MoveFlitDst(bm.v, bm.header, bm.tail)
		}
	}
	for s := range e.shards {
		sh := &e.shards[s]
		for _, fr := range sh.frees {
			e.tr.Emit(trace.KindVCFree, fr.msg, fr.link, -1, 0, int32(fr.vc))
			e.det.VCFreed(fr.link)
		}
		e.pendingNew = append(e.pendingNew, sh.arrivals...)
	}
}

// ---------------------------------------------------------------------------
// Stage 4: delivery ports drain one flit per cycle into the local node.
//
// Delivery VCs are owned by their node's shard, so flit consumption and VC
// release run in the parallel phase; message finalization (histograms,
// counters, trace, pool recycling) replays serially in node order — the same
// order the serial engine used, since the drain order is node-ascending by
// construction. The stage iterates the tail of the shard's occupied-VC bitmap
// instead of every delivery port: delivery VCs are the highest VCIDs, numbered
// in link order (node-major, port-minor), so the word-ascending, bit-ascending
// scan from the first delivery VC up reproduces the port-by-port scan order
// exactly — no sort. Each word is copied before its bits are walked:
// draining a tail releases the VC, which clears that VC's live bit
// (ReleaseEmptyVC) mid-iteration, and nothing sets bits during the stage.

func (e *Engine) drainShard(s int) {
	sh := &e.shards[s]
	sh.delivered = sh.delivered[:0]
	fab := e.fab
	words, _ := fab.OccupiedBitsShard(s)
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
			e.drainVC(sh, id)
		}
	}
}

// drainVC consumes one flit from occupied delivery VC id, releasing the VC
// and recording the message once the tail is consumed.
func (e *Engine) drainVC(sh *shardState, id router.VCID) {
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
	sh.delivered = append(sh.delivered, m.ID)
}

func (e *Engine) commitDelivery() {
	for s := range e.shards {
		for _, id := range e.shards[s].delivered {
			e.deliver(e.fab.Msg(id))
		}
	}
}

// mergeTxLinks concatenates the per-shard transmitted-link lists in shard
// order — the canonical Src-node-ascending sequence — for the detectors'
// EndCycle. With a single shard the list is used directly.
func (e *Engine) mergeTxLinks() {
	if len(e.shards) == 1 {
		e.txLinks = e.shards[0].txLinks
		return
	}
	e.txLinks = e.txLinks[:0]
	for s := range e.shards {
		e.txLinks = append(e.txLinks, e.shards[s].txLinks...)
	}
}

// ---------------------------------------------------------------------------
// Stage 5 (parallel half): routing candidate precomputation.
//
// Candidate sets depend only on the topology, the failure map and the
// message's destination — never on occupancy — so they can be computed
// against frozen state and stay valid while the serial commit allocates VCs
// one message at a time. Pending entries are striped across shards by index;
// each entry owns a fixed stride of the flat candidate arena.
//
// This is the one place a route memo (router.Message.Route) is written off
// the serial spine. The ownership rule: a message is pending at most once, so
// the stripe gives each message — and hence its memo — to exactly one worker,
// and nothing else reads or writes a memo during this phase. Every other memo
// access (the oracle, detector EndCycle) runs between barriers.

func (e *Engine) routeCandsShard(s int) {
	fab := e.fab
	stride := e.candStride
	for i := s; i < len(e.pending); i += len(e.shards) {
		e.routeCandsLen[i] = -1
		m := fab.Msg(e.pending[i])
		if m.Phase != router.PhaseNetwork || m.HeadVC == router.NilVC {
			continue // delivered, recovering or aborted meanwhile
		}
		hv := &fab.VCs[m.HeadVC]
		if !hv.HasHeader || hv.Next != router.NilVC || hv.Flits == 0 {
			continue // stale entry, or header flit not yet arrived
		}
		node := fab.RouterOf(fab.LinkOfVC(m.HeadVC))
		buf := e.routeCands[i*stride : i*stride : (i+1)*stride]
		e.routeCandsLen[i] = int32(len(e.alg.Candidates(fab, m, node, buf)))
	}
}

// ---------------------------------------------------------------------------
// Stage 6 (parallel): sources push flits of admitted messages into injection
// buffers. Injection VCs and the messages being fed are owned by the
// admitting shard. First flits are recorded for the serial pendingNew merge:
// a message's first feed always happens in its admission cycle (the
// injection buffer is empty and at least one flit deep), so the fed list is
// exactly this cycle's admissions in node-ascending order and the shard
// concatenation is canonical.

func (e *Engine) feedShard(s int) {
	sh := &e.shards[s]
	sh.fed = sh.fed[:0]
	fab := e.fab
	kept := sh.injecting[:0]
	for _, id := range sh.injecting {
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
				sh.fed = append(sh.fed, m.ID)
			}
			if m.Injected == m.Length {
				vc.HasTail = true
			}
		}
		if m.Injected < m.Length {
			kept = append(kept, id)
		}
	}
	sh.injecting = kept
}

func (e *Engine) commitFeed() {
	for s := range e.shards {
		e.pendingNew = append(e.pendingNew, e.shards[s].fed...)
	}
}
