// Package forensics reconstructs deadlock episodes from the flight
// recorder's event stream: formation (the channel-wait-for cycle,
// cross-checked against oracle sightings), detection (which rule fired,
// oracle→mark latency), verdict provenance (the blocking chain behind a
// false positive) and resolution (victims, drain time). It turns the raw
// trace rails of internal/trace into causal incident records.
//
// The correlator consumes events one at a time, so it runs identically
// offline (Correlate over a JSONL trace via trace.Scan) and online (Observe
// registered as the recorder's observer while the engine runs). Because the
// trace byte stream is already contractually deterministic for a fixed seed,
// the incident report — a pure function of that stream — is too; tests and
// the forensics-smoke CI gate hold it there.
//
// Episode model. An episode opens at the first oracle-deadlock sighting
// (or, with no sighting, at a mark the oracle refuted) while no episode is
// open, accumulates members/marks/victims, and closes when its last sighted
// member has routed, delivered or been recovered and no recovery is in
// flight. Distinct cycles that overlap in time merge into one episode — the
// correlator is a temporal correlator, not a graph partitioner; the
// formation cycle and per-mark chains carry the finer structure. A
// router's out-links, which chains and formation cycles walk, are learned
// from route-ok events alone.
//
// Memory. A deadlock storm keeps one episode open for the whole run, so
// its marks, their blocking chains and its victims are kept in fixed-size
// chunks of pointer-free records (store.go) — about 56 bytes a mark plus
// 16 per chain edge, nothing allocated per mark — and materialised as
// Episode.Marks and Victims once, when the episode closes. WriteJSONL
// streams a report record by record, never holding a line whole, and
// writes exactly the bytes json.Marshal would.
package forensics

import (
	"io"
	"sort"

	"wormnet/internal/metrics"
	"wormnet/internal/router"
	"wormnet/internal/trace"
)

// Options configure a Correlator.
type Options struct {
	// Mechanism forces the mechanism name stamped on episodes; "" infers it
	// from the events present (probe-* ⇒ cmh, i-set ⇒ ndm, dt-set ⇒ pdm,
	// marks without flag events ⇒ timeout, otherwise none).
	Mechanism string
	// Metrics, when non-nil, receives the episode metric families as
	// episodes close: wormnet_episodes_total{verdict}, the MTTD/MTTR
	// histograms and the episodes-in-flight gauge.
	Metrics *metrics.Collector
}

// chain length cap for false-positive blocking chains.
const maxChain = 16

// holdRec is one virtual channel a message occupies.
type holdRec struct {
	link router.LinkID
	vc   int32
}

// msgState tracks what the correlator knows about one message id. Ids are
// recycled by the fabric's pool; an inject event resets the slot.
type msgState struct {
	holds        []holdRec
	length       int32
	blockedNode  int32 // -1 when not blocked
	blockedIn    router.LinkID
	blockedSince int64
	sighted      int64 // -1 unless currently oracle-deadlocked
	lastHops     int64 // hop count of the last probe-return targeting this msg
	hasProbe     bool
}

// Correlator is the episode state machine. It is not safe for concurrent
// use; all trace emit sites run on the goroutine stepping the engine, so a
// recorder observer needs no locking. A nil *Correlator ignores every call.
type Correlator struct {
	opt Options

	msgs    []msgState
	linkSrc []int32           // link -> source router (-1 unknown)
	nodeOut [][]router.LinkID // node -> learned outgoing links, learn order
	holders [][]router.MsgID  // link -> msgs holding a VC on it (dup per VC)
	gRule   []int8            // input link -> last g-set rule in force (0 none)

	episodes    []*Episode
	open        *Episode
	liveMembers int
	recovering  int

	// The open episode's marks and victims (store.go), and the edges of
	// every blocking chain walked so far: closed episodes' marks keep
	// sub-slices of the edge chunks, so those are never reused.
	marks   chunks[markRec]
	victims chunks[Victim]
	edges   chunks[WaitEdge]
	chain   [maxChain]WaitEdge // blockingChain's walk

	seenISet, seenDTSet, seenProbe, seenMark bool
	lastCycle                                int64
	finished                                 bool
}

// New builds a correlator.
func New(opt Options) *Correlator {
	return &Correlator{
		opt:     opt,
		marks:   chunks[markRec]{size: markChunk},
		victims: chunks[Victim]{size: victimChunk},
		edges:   chunks[WaitEdge]{size: edgeChunk},
	}
}

func (c *Correlator) msg(id router.MsgID) *msgState {
	for int(id) >= len(c.msgs) {
		c.msgs = append(c.msgs, msgState{blockedNode: -1, blockedSince: -1, sighted: -1})
	}
	return &c.msgs[id]
}

func (c *Correlator) ensureLink(l router.LinkID) {
	for int(l) >= len(c.linkSrc) {
		c.linkSrc = append(c.linkSrc, -1)
		c.holders = append(c.holders, nil)
		c.gRule = append(c.gRule, 0)
	}
}

// learnSrc records that link l is an output of router node. Out-links are
// learned from route-ok alone.
func (c *Correlator) learnSrc(l router.LinkID, node int32) {
	if l < 0 || node < 0 {
		return
	}
	c.ensureLink(l)
	if c.linkSrc[l] == node {
		return
	}
	c.linkSrc[l] = node
	for int(node) >= len(c.nodeOut) {
		c.nodeOut = append(c.nodeOut, nil)
	}
	c.nodeOut[node] = append(c.nodeOut[node], l)
}

// addHold records that m occupies a VC on link l.
func (c *Correlator) addHold(id router.MsgID, l router.LinkID, vc int32) {
	if l < 0 {
		return
	}
	c.ensureLink(l)
	c.msg(id).holds = append(c.msg(id).holds, holdRec{link: l, vc: vc})
	c.holders[l] = append(c.holders[l], id)
}

// dropHold releases one VC of m on link l (the oldest hold on that link,
// which matches wormhole FIFO tail passage).
func (c *Correlator) dropHold(id router.MsgID, l router.LinkID) {
	ms := c.msg(id)
	for i, h := range ms.holds {
		if h.link == l {
			ms.holds = append(ms.holds[:i], ms.holds[i+1:]...)
			break
		}
	}
	if int(l) < len(c.holders) {
		hs := c.holders[l]
		for i, h := range hs {
			if h == id {
				c.holders[l] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
	}
}

// dropAllHolds releases every VC of m (recovery completion, delivery,
// id reuse) — this also cleans up holds whose release events were anonymous.
func (c *Correlator) dropAllHolds(id router.MsgID) {
	ms := c.msg(id)
	for _, h := range ms.holds {
		if int(h.link) >= len(c.holders) {
			continue
		}
		hs := c.holders[h.link]
		for i, hm := range hs {
			if hm == id {
				c.holders[h.link] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
	}
	ms.holds = ms.holds[:0]
}

// Observe feeds one event to the state machine. Register it with
// trace.Recorder.SetObserver for online correlation; Correlate drives it
// from a decoded stream. Nil-safe.
func (c *Correlator) Observe(ev trace.Event) {
	if c == nil {
		return
	}
	if ev.Cycle > c.lastCycle {
		c.lastCycle = ev.Cycle
	}
	switch ev.Kind {
	case trace.KindInject:
		ms := c.msg(ev.Msg)
		c.dropAllHolds(ev.Msg) // id reuse: the pool recycled a delivered msg
		c.unsight(ev.Msg, ev.Cycle)
		ms.blockedNode, ms.blockedSince = -1, -1
		ms.length = int32(ev.Arg)
		ms.hasProbe = false
		// ev.Link is an injection link: an input of ev.Node, never one of
		// its outputs, so nothing is learned from it.

	case trace.KindVCAlloc:
		c.addHold(ev.Msg, ev.Link, ev.Aux)

	case trace.KindVCFree:
		if ev.Msg != router.NilMsg {
			c.dropHold(ev.Msg, ev.Link)
		}
		// Anonymous frees (recovery absorption) are reconciled wholesale at
		// recover-end.

	case trace.KindRouteOK:
		ms := c.msg(ev.Msg)
		ms.blockedNode, ms.blockedSince = -1, -1
		c.learnSrc(router.LinkID(ev.Arg), ev.Node)
		c.addHold(ev.Msg, router.LinkID(ev.Arg), ev.Aux)
		c.unsight(ev.Msg, ev.Cycle)

	case trace.KindRouteFail:
		ms := c.msg(ev.Msg)
		ms.blockedNode = ev.Node
		ms.blockedIn = ev.Link
		if ev.Arg == 1 || ms.blockedSince < 0 {
			ms.blockedSince = ev.Cycle
		}

	case trace.KindISet:
		c.seenISet = true
	case trace.KindDTSet:
		c.seenDTSet = true
	case trace.KindGSet:
		c.seenISet = true
		c.ensureLink(ev.Link)
		c.gRule[ev.Link] = int8(ev.Arg)
	case trace.KindPSet:
		c.seenISet = true
		c.ensureLink(ev.Link)
		c.gRule[ev.Link] = 0

	case trace.KindProbeEmit, trace.KindProbeForward, trace.KindProbeDrop:
		c.seenProbe = true
	case trace.KindProbeReturn:
		c.seenProbe = true
		victim := router.MsgID(ev.Aux)
		if victim >= 0 {
			ms := c.msg(victim)
			ms.lastHops = ev.Arg
			ms.hasProbe = true
		}

	case trace.KindOracleDeadlock:
		c.sight(ev)

	case trace.KindDetect:
		c.mark(ev)

	case trace.KindRecoverStart:
		if c.open != nil {
			c.recovering++
			c.victims.push(Victim{
				Msg: int32(ev.Msg), Start: ev.Cycle, End: -1, Node: -1,
				DrainCycles: -1, Style: ev.Arg, LengthFlits: c.msg(ev.Msg).length,
			})
			c.open.AbsorbedFlitsEst += int64(c.msg(ev.Msg).length)
		}

	case trace.KindRecoverEnd:
		if c.open != nil {
			for i := c.victims.len() - 1; i >= 0; i-- {
				v := c.victims.at(i)
				if v.Msg == int32(ev.Msg) && v.End < 0 {
					v.End = ev.Cycle
					v.Node = ev.Node
					v.DrainCycles = ev.Cycle - v.Start
					v.Delivered = ev.Arg == 1
					break
				}
			}
			if c.recovering > 0 {
				c.recovering--
			}
		}
		c.dropAllHolds(ev.Msg)
		ms := c.msg(ev.Msg)
		ms.blockedNode, ms.blockedSince = -1, -1
		c.unsight(ev.Msg, ev.Cycle)
		// unsight only reaches maybeClose for sighted members; a pure
		// false-positive episode closes when its last victim drains.
		c.maybeClose(ev.Cycle)

	case trace.KindDeliver:
		c.dropAllHolds(ev.Msg)
		ms := c.msg(ev.Msg)
		ms.blockedNode, ms.blockedSince = -1, -1
		c.unsight(ev.Msg, ev.Cycle)
	}
}

// sight handles an oracle-deadlock event: open an episode if none is, and
// record the member with a snapshot of its blocking state.
func (c *Correlator) sight(ev trace.Event) {
	if c.open == nil {
		c.open = &Episode{
			ID:         len(c.episodes) + 1,
			OpenCycle:  ev.Cycle,
			CloseCycle: -1, MTTDCycles: -1, MTTRCycles: -1,
		}
		c.opt.Metrics.SetEpisodesOpen(1)
	}
	ms := c.msg(ev.Msg)
	if ms.sighted >= 0 {
		return // already a member (engine emits once, but be safe)
	}
	ms.sighted = ev.Cycle
	c.liveMembers++
	m := Member{
		Msg: int32(ev.Msg), Sighted: ev.Cycle,
		Node: ms.blockedNode, InLink: int32(ms.blockedIn), BlockedSince: ms.blockedSince,
	}
	if ms.blockedNode < 0 {
		m.InLink = -1
	}
	for _, h := range ms.holds {
		m.Holds = append(m.Holds, int32(h.link))
	}
	c.open.Members = append(c.open.Members, m)
	if n := int(ev.Arg); n > c.open.PeakOracleSet {
		c.open.PeakOracleSet = n
	}
}

// unsight removes a message from the open episode's live member set (it
// routed, delivered, recovered or its id was recycled) and closes the
// episode when nothing is left in flight.
func (c *Correlator) unsight(id router.MsgID, cycle int64) {
	ms := c.msg(id)
	if ms.sighted < 0 {
		return
	}
	ms.sighted = -1
	if c.liveMembers > 0 {
		c.liveMembers--
	}
	c.maybeClose(cycle)
}

// maybeClose closes the open episode once its members and victims have all
// drained. Called only from member/victim removal paths, so a mark and its
// same-cycle recover-start can never race it.
func (c *Correlator) maybeClose(cycle int64) {
	if c.open == nil || c.liveMembers > 0 || c.recovering > 0 {
		return
	}
	ep := c.open
	c.open = nil
	ep.CloseCycle = cycle
	c.finalize(ep)
	if first := ep.FirstMarkCycle(); first >= 0 {
		ep.MTTRCycles = cycle - first
	}
	c.episodes = append(c.episodes, ep)
	c.opt.Metrics.SetEpisodesOpen(0)
	c.opt.Metrics.ObserveEpisode(ep.Verdict == VerdictTrueDeadlock, ep.MTTDCycles, ep.MTTRCycles)
}

// Verdict values.
const (
	VerdictTrueDeadlock  = "true-deadlock"
	VerdictFalsePositive = "false-positive"
)

// finalize materialises the episode's marks and victims, at exact size, and
// stamps its verdict, mechanism, MTTD and formation.
func (c *Correlator) finalize(ep *Episode) {
	if n := c.marks.len(); n > 0 {
		ep.Marks = make([]Mark, n)
		for i := range ep.Marks {
			ep.Marks[i] = c.marks.at(i).mark(&c.edges)
		}
		c.marks.reset()
	}
	if n := c.victims.len(); n > 0 {
		ep.Victims = make([]Victim, n)
		for i := range ep.Victims {
			ep.Victims[i] = *c.victims.at(i)
		}
		c.victims.reset()
	}
	if len(ep.Members) > 0 {
		ep.Verdict = VerdictTrueDeadlock
		if first := ep.FirstMarkCycle(); first >= 0 {
			ep.MTTDCycles = first - ep.OpenCycle
		}
		ep.Formation = c.formation(ep.Members)
	} else {
		ep.Verdict = VerdictFalsePositive
	}
	ep.Mechanism = c.mechanism()
}

// mechanism infers the active detection mechanism from the kinds seen.
func (c *Correlator) mechanism() string {
	if c.opt.Mechanism != "" {
		return c.opt.Mechanism
	}
	switch {
	case c.seenProbe:
		return "cmh"
	case c.seenISet:
		return "ndm"
	case c.seenDTSet:
		return "pdm"
	case c.seenMark:
		return "timeout"
	default:
		return "none"
	}
}

// mark handles a detect event: attach it (opening a false-positive episode
// if none is open) with rule attribution and, for refuted marks, the
// blocking chain that explains the spurious threshold crossing.
func (c *Correlator) mark(ev trace.Event) {
	c.seenMark = true
	if c.open == nil {
		c.open = &Episode{
			ID:         len(c.episodes) + 1,
			OpenCycle:  ev.Cycle,
			CloseCycle: -1, MTTDCycles: -1, MTTRCycles: -1,
		}
		c.opt.Metrics.SetEpisodesOpen(1)
	}
	ms := c.msg(ev.Msg)
	mk := markRec{
		cycle: ev.Cycle, msg: int32(ev.Msg), node: ev.Node, isTrue: ev.Arg == 1,
		sinceBlocked: -1, oracleLatency: -1,
	}
	if ms.blockedSince >= 0 {
		mk.sinceBlocked = ev.Cycle - ms.blockedSince
	}
	if ms.sighted >= 0 {
		mk.oracleLatency = ev.Cycle - ms.sighted
	}
	mk.rule, mk.hops = c.attribute(ms)
	if !mk.isTrue {
		var chain []WaitEdge
		chain, mk.chainEnd = c.blockingChain(ev.Msg)
		if len(chain) > 0 {
			chunk, off, run := c.edges.run(len(chain))
			copy(run, chain)
			mk.chainChunk, mk.chainOff, mk.chainLen = int32(chunk), uint16(off), uint8(len(chain))
		}
	}
	c.marks.push(mk)
}

// attribute names the rule that produced a mark of a message in state ms.
func (c *Correlator) attribute(ms *msgState) (uint8, int64) {
	if c.seenProbe && ms.hasProbe {
		return ruleProbeReturn, ms.lastHops
	}
	if c.seenISet { // NDM: the G rule armed on the blocked input
		rule := int8(0)
		if ms.blockedNode >= 0 && int(ms.blockedIn) < len(c.gRule) {
			rule = c.gRule[ms.blockedIn]
		}
		switch rule {
		case trace.GRuleFirstAttempt:
			return ruleG1, 0
		case trace.GRulePromotion:
			return ruleG2, 0
		default:
			return ruleGUnknown, 0
		}
	}
	if c.seenDTSet {
		return ruleDTThreshold, 0
	}
	return ruleTimeout, 0
}

// blockingChain walks the channel-occupancy graph from a falsely marked
// message: at each hop, among the worms holding a channel out of the node
// where the current worm is blocked, it prefers a blocked holder (smallest
// message id, then smallest link) and follows it; reaching a holder that is
// still advancing ends the chain — that moving worm is what kept the
// dependency tree alive and the marked message inactive. The chain is built
// in c.chain and stays valid until the next walk.
func (c *Correlator) blockingChain(start router.MsgID) ([]WaitEdge, uint8) {
	chain := c.chain[:0]
	cur := start
	for len(chain) < maxChain {
		ms := c.msg(cur)
		node := ms.blockedNode
		if node < 0 {
			return chain, endAdvancing
		}
		nextMsg, nextLink, nextBlocked, found := c.holderAt(node, cur)
		if !found {
			return chain, endNoHolder
		}
		chain = append(chain, WaitEdge{
			Msg: int32(cur), Node: node, Link: int32(nextLink), Next: int32(nextMsg),
		})
		if !nextBlocked {
			return chain, endAdvancing
		}
		// The messages visited so far are the chain's waiters.
		for _, e := range chain {
			if e.Msg == int32(nextMsg) {
				return chain, endCycle
			}
		}
		cur = nextMsg
	}
	return chain, endTruncated
}

// holderAt finds the preferred holder of a channel leaving node, excluding
// skip: blocked holders first, then smallest message id, then smallest link.
func (c *Correlator) holderAt(node int32, skip router.MsgID) (router.MsgID, router.LinkID, bool, bool) {
	var bestMsg router.MsgID
	var bestLink router.LinkID
	bestBlocked, found := false, false
	if int(node) >= len(c.nodeOut) {
		return 0, 0, false, false
	}
	for _, l := range c.nodeOut[node] {
		for _, h := range c.holders[l] {
			if h == skip {
				continue
			}
			blocked := c.msg(h).blockedNode >= 0
			better := !found ||
				(blocked && !bestBlocked) ||
				(blocked == bestBlocked && (h < bestMsg || (h == bestMsg && l < bestLink)))
			if better {
				bestMsg, bestLink, bestBlocked, found = h, l, blocked, true
			}
		}
	}
	return bestMsg, bestLink, bestBlocked, found
}

// formation extracts a channel-wait-for cycle from the members' sighting
// snapshots. Edges are over-approximate (m waits on m' iff m' holds a
// channel leaving m's blocked router), but the true wait-for graph is a
// subgraph and the oracle guarantees every member waits on a member, so a
// deterministic functional walk (smallest successor from the smallest
// member) must revisit — the revisited suffix is the reported cycle.
func (c *Correlator) formation(members []Member) []WaitEdge {
	byMsg := make(map[int32]*Member, len(members))
	ids := make([]int32, 0, len(members))
	for i := range members {
		byMsg[members[i].Msg] = &members[i]
		ids = append(ids, members[i].Msg)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// successor edge per member: smallest holder msg, then smallest link.
	succ := func(m *Member) (int32, int32, bool) {
		if m.Node < 0 {
			return 0, 0, false
		}
		var bm, bl int32
		found := false
		for _, id := range ids {
			if id == m.Msg {
				continue
			}
			for _, l := range byMsg[id].Holds {
				if int(l) >= len(c.linkSrc) || c.linkSrc[l] != m.Node {
					continue
				}
				if !found || id < bm || (id == bm && l < bl) {
					bm, bl, found = id, l, true
				}
			}
		}
		return bm, bl, found
	}

	seenAt := map[int32]int{}
	var path []WaitEdge
	cur := byMsg[ids[0]]
	for steps := 0; steps <= 2*len(members)+2; steps++ {
		if at, dup := seenAt[cur.Msg]; dup {
			return path[at:] // the cycle
		}
		seenAt[cur.Msg] = len(path)
		nm, nl, found := succ(cur)
		if !found {
			// A member with no member successor (snapshot raced a recovery
			// release): restart from the smallest unvisited member.
			var next *Member
			for _, id := range ids {
				if _, dup := seenAt[id]; !dup {
					next = byMsg[id]
					break
				}
			}
			if next == nil {
				return nil
			}
			path = path[:0]
			seenAt = map[int32]int{}
			cur = next
			continue
		}
		path = append(path, WaitEdge{Msg: cur.Msg, Node: cur.Node, Link: nl, Next: nm})
		cur = byMsg[nm]
	}
	return nil
}

// Finish closes out correlation at end of trace: an episode still open is
// recorded as unresolved. Call once; Episodes reflects the final report.
func (c *Correlator) Finish() {
	if c == nil || c.finished {
		return
	}
	c.finished = true
	if ep := c.open; ep != nil {
		c.open = nil
		ep.Unresolved = true
		c.finalize(ep)
		c.episodes = append(c.episodes, ep)
		c.opt.Metrics.SetEpisodesOpen(0)
		c.opt.Metrics.ObserveEpisode(ep.Verdict == VerdictTrueDeadlock, ep.MTTDCycles, ep.MTTRCycles)
	}
}

// Episodes returns the reconstructed episodes in open order. Call Finish
// first for a complete report.
func (c *Correlator) Episodes() []*Episode {
	if c == nil {
		return nil
	}
	return c.episodes
}

// WriteReport finishes correlation and writes the incident report as JSONL.
func (c *Correlator) WriteReport(w io.Writer) error {
	if c == nil {
		return nil
	}
	c.Finish()
	return WriteJSONL(w, c.episodes)
}

// Correlate reconstructs episodes offline from a JSONL trace stream.
func Correlate(r io.Reader, opt Options) ([]*Episode, error) {
	c := New(opt)
	if err := trace.Scan(r, func(ev trace.Event) error {
		c.Observe(ev)
		return nil
	}); err != nil {
		return nil, err
	}
	c.Finish()
	return c.Episodes(), nil
}
