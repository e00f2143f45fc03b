// Package probe implements a Chandy–Misra–Haas edge-chasing deadlock
// detector for the wormhole fabric, the classic distributed alternative to
// the paper's router-local NDM/PDM mechanisms.
//
// When a header stays blocked past an initiation delay, its router launches
// probe control messages along the wait-for graph: a probe carries
// (initiator message ID, hop count, 64-bit rolling path digest) and chases
// the worm occupying a requested virtual channel, walking that worm's body
// link by link toward its header. At a blocked header the probe fans out
// onto every dependency edge not yet covered this wave (per-initiator digest
// dedupe bounds the storm, together with a MaxHops cap); a probe that
// reaches a channel held by its own initiator has traversed a cycle of the
// wait-for graph, and the initiator — or the oldest message seen on the
// path, under VictimOldest — is marked deadlocked and handed to recovery.
//
// Unlike NDM and PDM, probes are not free: every link traversal charges one
// control flit on the physical link it crosses. The transport is
// configurable: TransportControlVC models a dedicated control virtual
// channel (probes move regardless of data traffic, at most one per link per
// cycle), while TransportStealIdle only moves probes across links that
// carried no data flit this cycle. Probe returns are a router-local
// observation (the probe is already at the router holding the initiator's
// channel) and consume no flit.
package probe

import (
	"encoding/binary"
	"fmt"

	"wormnet/internal/detect"
	"wormnet/internal/router"
	"wormnet/internal/snap"
	"wormnet/internal/trace"
)

// Transport selects how probe flits share the physical links with data.
type Transport uint8

const (
	// TransportStealIdle sends probe flits only across links that carried
	// no data flit this cycle. Free of data-plane interference, but probes
	// stall under heavy load — except near deadlock, where links idle.
	TransportStealIdle Transport = iota
	// TransportControlVC models a dedicated control virtual channel: one
	// probe flit may cross each link per cycle regardless of data traffic.
	TransportControlVC
)

func (t Transport) String() string {
	if t == TransportControlVC {
		return "ctrl-vc"
	}
	return "steal-idle"
}

// Victim selects which message a returning probe marks for recovery.
type Victim uint8

const (
	// VictimLocal marks the probe's initiator — the message whose router
	// observes the cycle. Simple and always router-local.
	VictimLocal Victim = iota
	// VictimOldest marks the oldest (earliest generation time) message the
	// probe visited, the age-based selection of classic CMH variants; it
	// biases recovery toward the message most likely to stall others.
	VictimOldest
)

func (v Victim) String() string {
	if v == VictimOldest {
		return "oldest"
	}
	return "local"
}

// Config parameterizes the detector.
type Config struct {
	// InitDelay is the number of cycles a header must stay blocked before
	// its router starts probing (the analog of NDM/PDM thresholds).
	InitDelay int64
	// ReprobeEvery re-opens the digest-dedupe window this many cycles after
	// a wave started, so still-blocked initiators re-probe a wait graph
	// that may have changed shape. Defaults to 4*InitDelay.
	ReprobeEvery int64
	// MaxHops caps a probe's link traversals; probes past the cap are
	// dropped. Bounds worst-case storm length.
	MaxHops int32
	// Transport selects the probe flit transport model.
	Transport Transport
	// Victim selects the victim a returning probe marks.
	Victim Victim
}

func (c Config) withDefaults() Config {
	if c.ReprobeEvery <= 0 {
		c.ReprobeEvery = 4 * c.InitDelay
	}
	return c
}

// pr is one in-flight probe. It sits on virtual channel at, which belongs to
// the worm target it is chasing; each cycle it advances one link along
// target's body toward the header (charging a control flit), and at the
// header it fans out onto the worms blocking target.
type pr struct {
	initiator router.MsgID // message whose router launched the chase
	target    router.MsgID // worm currently being chased
	at        router.VCID  // VC of target the probe currently sits on
	hops      int32        // link traversals so far
	digest    uint64       // rolling FNV-1a digest of the chase path (probe payload)
	victim    router.MsgID // oldest message seen on the path (VictimOldest)
	victimGen int64        // generation time of victim
}

// initiatorState is the per-message dedupe window. seen holds the keys of
// the wait edges already chased (or self-returned) in the current wave.
type initiatorState struct {
	waveStart int64
	seen      edgeSet
}

// Detector is the CMH edge-chasing detector. It satisfies detect.Detector.
type Detector struct {
	fab *router.Fabric
	cfg Config
	tr  *trace.Recorder

	// In-flight probes, advanced once per cycle. next is the scratch buffer
	// the survivors of each advance are compacted into; the two are swapped
	// so steady-state advancing allocates nothing.
	probes []pr
	next   []pr

	// Blocked messages eligible to initiate probing, as a dense list with a
	// per-ID index for O(1) removal (swap-remove). blockedIdx[id] == -1
	// means absent.
	blocked    []router.MsgID
	blockedIdx []int32

	inits       []initiatorState
	pendingMark []bool // probe returned for this victim; mark on next RouteFailed

	// linkUsed is the set of links no probe flit may cross any more this
	// cycle, bit l of word l>>6: those a probe flit crossed (at most one per
	// link per cycle in either transport) and, under steal-idle, those a data
	// flit crossed. EndCycle empties it before it returns.
	linkUsed []uint64

	candBuf []router.LinkID
	keyBuf  []uint64 // scratch for writing a dedupe window's keys in sorted order

	emitted   int64
	forwarded int64
	dropped   int64
	returned  int64
	relayed   int64 // probes consumed by fan-out at a header (not dropped, not returned)
	seedRet   int64 // returns of virtual seed probes (self-cycles found at the initiator)
	flits     int64
}

// New constructs the detector over the fabric.
func New(f *router.Fabric, cfg Config) *Detector {
	return &Detector{
		fab:      f,
		cfg:      cfg.withDefaults(),
		linkUsed: make([]uint64, (f.NumLinks()+63)/64),
	}
}

// Name identifies the detector and its configuration in results tables.
func (d *Detector) Name() string {
	return fmt.Sprintf("cmh(init=%d,hops=%d,%s,%s)",
		d.cfg.InitDelay, d.cfg.MaxHops, d.cfg.Transport, d.cfg.Victim)
}

// Capabilities implements detect.Detector: CMH traces its probe events,
// reports probe totals, is encodable and snapshots its state; it has no
// channel flags.
func (d *Detector) Capabilities() detect.Capabilities {
	return detect.Capabilities{SetTracer: d.SetTracer, ProbeTotals: d.ProbeTotals, AppendState: d.AppendState,
		Snapshot: d.Snapshot, Restore: d.Restore}
}

// SetTracer attaches the flight recorder (nil-safe).
func (d *Detector) SetTracer(tr *trace.Recorder) { d.tr = tr }

// ProbeTotals reports cumulative probe activity for the engine's metrics.
func (d *Detector) ProbeTotals() detect.ProbeTotals {
	return detect.ProbeTotals{
		Emitted:   d.emitted,
		Forwarded: d.forwarded,
		Dropped:   d.dropped,
		Returned:  d.returned,
		Flits:     d.flits,
		InFlight:  len(d.probes),
	}
}

func (d *Detector) growMsg(id router.MsgID) {
	n := int(id) + 1
	for len(d.blockedIdx) < n {
		d.blockedIdx = append(d.blockedIdx, -1)
	}
	for len(d.inits) < n {
		d.inits = append(d.inits, initiatorState{waveStart: -1})
	}
	for len(d.pendingMark) < n {
		d.pendingMark = append(d.pendingMark, false)
	}
}

func (d *Detector) addBlocked(id router.MsgID) {
	if d.blockedIdx[id] >= 0 {
		return
	}
	d.blockedIdx[id] = int32(len(d.blocked))
	d.blocked = append(d.blocked, id)
}

func (d *Detector) removeBlocked(id router.MsgID) {
	if int(id) >= len(d.blockedIdx) {
		return
	}
	i := d.blockedIdx[id]
	if i < 0 {
		return
	}
	last := d.blocked[len(d.blocked)-1]
	d.blocked[i] = last
	d.blockedIdx[last] = i
	d.blocked = d.blocked[:len(d.blocked)-1]
	d.blockedIdx[id] = -1
}

// RouteFailed records the blocked message as a probing candidate and
// reports whether a returned probe has scheduled it for marking. Message
// IDs are pooled by the fabric, so the first failed attempt of an
// incarnation resets all per-ID state.
func (d *Detector) RouteFailed(m *router.Message, in router.LinkID, outs []router.LinkID, first bool, now int64) bool {
	d.growMsg(m.ID)
	if first {
		d.pendingMark[m.ID] = false
		st := &d.inits[m.ID]
		st.waveStart = -1
		st.seen.reset()
		d.addBlocked(m.ID)
	}
	if d.pendingMark[m.ID] {
		d.pendingMark[m.ID] = false
		return true
	}
	return false
}

// RouteSucceeded retires the message from the probing candidates.
func (d *Detector) RouteSucceeded(m *router.Message, in router.LinkID) {
	if int(m.ID) < len(d.blockedIdx) {
		d.removeBlocked(m.ID)
		d.pendingMark[m.ID] = false
	}
}

// VCFreed is not needed: probes validate channel ownership as they move.
func (d *Detector) VCFreed(l router.LinkID) {}

// EndCycle advances every in-flight probe one step and launches new probes
// from eligible blocked initiators. It reads fabric state but never mutates
// it, honoring the detect.Detector contract; txLinks is engine-owned scratch,
// consulted only within the call. Under steal-idle the links that carried
// data are taken before any probe moves, so no probe flit crosses them.
func (d *Detector) EndCycle(now int64, txLinks []router.LinkID) {
	if d.cfg.Transport == TransportStealIdle {
		for _, l := range txLinks {
			d.linkUsed[l>>6] |= 1 << (l & 63)
		}
	}
	d.advance(now)
	d.launch(now)
	clear(d.linkUsed)
}

// channelFree reports whether a probe flit may cross link l this cycle.
func (d *Detector) channelFree(l router.LinkID) bool {
	return d.linkUsed[l>>6]>>(l&63)&1 == 0
}

func (d *Detector) useChannel(l router.LinkID) {
	d.linkUsed[l>>6] |= 1 << (l & 63)
	d.flits++
}

// advance moves each in-flight probe at most one link along the worm it is
// chasing, handling arrival at the header.
func (d *Detector) advance(now int64) {
	next := d.next[:0]
	for _, p := range d.probes {
		vc := &d.fab.VCs[p.at]
		if vc.Occupant != p.target {
			d.drop(p, trace.ProbeDropStale)
			continue
		}
		m := d.fab.Msg(p.target)
		if m.HeadVC == p.at {
			next = d.arrive(p, m, now, next)
			continue
		}
		nxt := vc.Next
		if nxt == router.NilVC {
			// The chain was cut under the probe (recovery in progress).
			d.drop(p, trace.ProbeDropStale)
			continue
		}
		nl := d.fab.LinkOfVC(nxt)
		if !d.channelFree(nl) {
			next = append(next, p) // wait for the link
			continue
		}
		d.useChannel(nl)
		p.hops++
		if p.hops > d.cfg.MaxHops {
			d.drop(p, trace.ProbeDropHops)
			continue
		}
		p.at = nxt
		next = append(next, p)
	}
	d.probes, d.next = next, d.probes
}

// arrive handles a probe that reached the header VC of the worm it chased.
func (d *Detector) arrive(p pr, m *router.Message, now int64, next []pr) []pr {
	if m.Phase != router.PhaseNetwork || m.Attempts == 0 {
		// The worm is no longer wait-blocked; the edge evaporated.
		d.drop(p, trace.ProbeDropStale)
		return next
	}
	if p.hops >= d.cfg.MaxHops {
		d.drop(p, trace.ProbeDropHops)
		return next
	}
	if d.cfg.Victim == VictimOldest && m.GenTime < p.victimGen {
		p.victim = m.ID
		p.victimGen = m.GenTime
	}
	node := d.fab.RouterOf(d.fab.LinkOfVC(p.at))
	return d.expand(p, m, node, now, next, false)
}

// expand fans a probe out from the blocked header of m at node onto the
// worms holding its feasible outputs. When emit is true the probe is a
// freshly seeded initiator probe (launch path): children go out as
// KindProbeEmit with hops starting at 1 and the parent is virtual. When
// emit is false the probe physically arrived here: children are
// KindProbeForward and the parent is consumed (relayed, returned, or
// dropped).
func (d *Detector) expand(p pr, m *router.Message, node int, now int64, next []pr, emit bool) []pr {
	outs := d.fab.Candidates(m, node, d.candBuf[:0])
	d.candBuf = outs[:0]
	st := &d.inits[p.initiator]

	// A header with a free VC on a feasible output is not wait-blocked — it
	// will route; chasing past it would manufacture false cycles.
	for _, out := range outs {
		if d.fab.FreeVC(out) != router.NilVC {
			if !emit {
				d.drop(p, trace.ProbeDropRoutable)
			}
			return next
		}
	}

	kind := trace.KindProbeForward
	if emit {
		kind = trace.KindProbeEmit
	}
	spawned := false
	blockedCh := false
	for _, out := range outs {
		lk := &d.fab.Links[out]
		for v := lk.FirstVC; v < lk.FirstVC+router.VCID(lk.NumVC); v++ {
			occ := d.fab.VCs[v].Occupant
			if occ == router.NilMsg {
				continue
			}
			// The initiator check must precede the own-worm skip: for a
			// seed probe target == initiator, and a feasible output held
			// by the initiator's own body is a self-cycle (the worm
			// wrapped around a torus dimension and blocks itself) that
			// the skip would otherwise swallow.
			if occ == p.initiator {
				if emit {
					// Dedupe the self-edge per wave like any spawned
					// edge, or an unmarked initiator would count a
					// fresh return every single cycle.
					if !st.seen.add(edgeKey(out, occ)) {
						continue
					}
					d.seedRet++
				}
				d.ret(p, out, node, now)
				return next
			}
			if occ == p.target {
				continue
			}
			// Dedupe on the wait edge itself, not the path that reached
			// it. This is CMH's classic "dependent" memory: once a wave
			// has chased worm occ from channel out, any other probe of
			// the same wave reaching that edge adds nothing — the chase
			// outcome is path-independent, and every path that closes a
			// cycle returns via the initiator check above before getting
			// here. Path-keyed dedupe would instead let probes of
			// initiators that merely wait ON a cycle orbit it until the
			// hop cap (each lap is a fresh path), monopolizing the
			// cycle's links and starving the cycle members' own seed
			// launches — the deadlock would sit undetected behind its
			// own probe storm.
			key := edgeKey(out, occ)
			if st.seen.has(key) {
				continue
			}
			if !d.channelFree(out) {
				blockedCh = true
				continue
			}
			d.useChannel(out)
			st.seen.add(key)
			dig := roll(p.digest, out, occ)
			child := pr{
				initiator: p.initiator,
				target:    occ,
				at:        v,
				hops:      p.hops + 1,
				digest:    dig,
				victim:    p.victim,
				victimGen: p.victimGen,
			}
			if emit {
				d.emitted++
			} else {
				d.forwarded++
			}
			d.tr.Emit(kind, p.initiator, out, int32(node), int64(child.hops), int32(occ))
			next = append(next, child)
			spawned = true
		}
	}
	if emit {
		return next
	}
	switch {
	case blockedCh:
		next = append(next, p) // retry the gated edges next cycle
	case spawned:
		d.relayed++
	default:
		d.drop(p, trace.ProbeDropDeadEnd)
	}
	return next
}

// ret consumes a probe that found a channel held by its own initiator: a
// wait-for cycle. The victim is scheduled for marking on its next failed
// routing attempt (the engine calls RouteFailed for every blocked message
// every cycle, so the mark lands in the same cycle's route pass). The
// return is a router-local observation and consumes no flit.
func (d *Detector) ret(p pr, out router.LinkID, node int, now int64) {
	victim := p.initiator
	if d.cfg.Victim == VictimOldest {
		victim = p.victim
	}
	// Message IDs are pooled; a probe whose victim slot was recycled to a
	// different incarnation must not mark the newcomer.
	if vm := d.fab.Msg(victim); vm == nil || vm.GenTime != p.victimGen {
		d.drop(p, trace.ProbeDropStale)
		return
	}
	d.returned++
	d.growMsg(victim)
	d.pendingMark[victim] = true
	d.tr.Emit(trace.KindProbeReturn, p.initiator, out, int32(node), int64(p.hops), int32(victim))
}

func (d *Detector) drop(p pr, reason int64) {
	d.dropped++
	d.tr.Emit(trace.KindProbeDrop, p.initiator, d.fab.LinkOfVC(p.at), -1, reason, int32(p.target))
}

// launch seeds probes from every message blocked past InitDelay. The seed
// probe is virtual — it sits at the initiator's own header — and fans out
// immediately; per-wave digest dedupe makes repeated launches idempotent
// until ReprobeEvery re-opens the window, so edges gated by busy links are
// retried every cycle without duplicating edges already probed.
func (d *Detector) launch(now int64) {
	for i := 0; i < len(d.blocked); i++ {
		id := d.blocked[i]
		m := d.fab.Msg(id)
		if m == nil || m.Phase != router.PhaseNetwork || m.Attempts == 0 {
			d.removeBlocked(id)
			i--
			continue
		}
		if now-m.BlockedSince < d.cfg.InitDelay || m.HeadVC == router.NilVC {
			continue
		}
		st := &d.inits[id]
		if st.waveStart < m.BlockedSince || now-st.waveStart >= d.cfg.ReprobeEvery {
			st.waveStart = now
			st.seen.reset()
		}
		node := d.fab.RouterOf(d.fab.LinkOfVC(m.HeadVC))
		seed := pr{
			initiator: id,
			target:    id,
			at:        m.HeadVC,
			hops:      0,
			digest:    digestSeed(id),
			victim:    id,
			victimGen: m.GenTime,
		}
		d.probes = d.expand(seed, m, node, now, d.probes, true)
	}
}

// AppendState is detect.Capabilities.AppendState for the model checker. The
// encoding covers everything that influences future probe behavior:
//
//   - every in-flight probe, in advance order (ordering is behavioral: the
//     per-link one-flit budget is consumed first come, first served);
//   - every blocked initiator, in launch order, with its blocked age clamped
//     at InitDelay (beyond which eligibility no longer changes);
//   - the pending-mark bits, as a count and the marked IDs;
//   - every non-default per-initiator wave window: wave age clamped at
//     ReprobeEvery (beyond which the next launch reopens it), the
//     wave-predates-blocking bit, and the count and sorted list of dedupe
//     keys.
//
// Absolute cycle stamps never appear: ages are clamped at the point past
// their largest behavioral threshold, and a probe's victim generation stamp
// is encoded as its freshness (does the pooled slot still hold that
// incarnation) plus its rank among live generation times (which fixes every
// VictimOldest comparison it can still participate in). The rolling path
// digest is carried but never compared (dedupe is edge-keyed), so it is
// excluded. linkUsed and the cumulative counters are scratch/telemetry.
func (d *Detector) AppendState(buf []byte, now int64) []byte {
	buf = appendID(buf, int32(len(d.probes)))
	for i := range d.probes {
		p := &d.probes[i]
		buf = appendID(buf, int32(p.initiator))
		buf = appendID(buf, int32(p.target))
		buf = appendID(buf, int32(p.at))
		buf = appendID(buf, p.hops)
		buf = appendID(buf, int32(p.victim))
		buf = d.appendGenRank(buf, p.victim, p.victimGen)
	}
	buf = appendID(buf, int32(len(d.blocked)))
	for _, id := range d.blocked {
		buf = appendID(buf, int32(id))
		m := d.fab.Msg(id)
		if m == nil || m.Phase != router.PhaseNetwork {
			buf = append(buf, 0xff, 0xff) // stale entry; launch retires it
			continue
		}
		age := now - m.BlockedSince
		if age > d.cfg.InitDelay {
			age = d.cfg.InitDelay
		}
		buf = appendID(buf, int32(age))
	}
	pending := 0
	for _, p := range d.pendingMark {
		if p {
			pending++
		}
	}
	buf = appendID(buf, int32(pending))
	for id, p := range d.pendingMark {
		if p {
			buf = appendID(buf, int32(id))
		}
	}
	for id := range d.inits {
		st := &d.inits[id]
		if st.waveStart < 0 && st.seen.len() == 0 {
			continue
		}
		buf = appendID(buf, int32(id))
		var waveAge int32 = -1
		var predates byte
		if st.waveStart >= 0 {
			a := now - st.waveStart
			if a > d.cfg.ReprobeEvery {
				a = d.cfg.ReprobeEvery
			}
			waveAge = int32(a)
			if m := d.fab.Msg(router.MsgID(id)); m == nil || st.waveStart < m.BlockedSince {
				predates = 1
			}
		}
		buf = appendID(buf, waveAge)
		buf = append(buf, predates)
		buf = appendID(buf, int32(st.seen.len()))
		for _, k := range d.sortedKeys(&st.seen) {
			buf = binary.LittleEndian.AppendUint64(buf, k)
		}
	}
	return buf
}

// sortedKeys returns a dedupe window's keys in ascending order, in a scratch
// buffer the next call reuses.
func (d *Detector) sortedKeys(seen *edgeSet) []uint64 {
	d.keyBuf = seen.appendSorted(d.keyBuf[:0])
	return d.keyBuf
}

// prSnapBytes is one in-flight probe in a snapshot: five 32-bit fields and
// two 64-bit ones.
const prSnapBytes = 5*4 + 2*8

// Snapshot is detect.Capabilities.Snapshot: the exact state EndCycle and
// RouteFailed carry from one cycle to the next. In order: the in-flight
// probes (advance order), the blocked initiators (launch order), the messages
// with a pending mark, every dedupe window that is not in its initial state
// (wave start and the sorted edge keys), and the seven cumulative counters
// ProbeTotals and the conservation checks read.
func (d *Detector) Snapshot(dst []byte) []byte {
	dst = snap.U32(dst, uint32(len(d.probes)))
	for i := range d.probes {
		p := &d.probes[i]
		dst = snap.I32(dst, int32(p.initiator))
		dst = snap.I32(dst, int32(p.target))
		dst = snap.I32(dst, int32(p.at))
		dst = snap.I32(dst, p.hops)
		dst = snap.I32(dst, int32(p.victim))
		dst = snap.U64(dst, p.digest)
		dst = snap.I64(dst, p.victimGen)
	}
	dst = snap.IDs(dst, d.blocked)

	at, n := len(dst), 0
	dst = snap.U32(dst, 0)
	for id, pending := range d.pendingMark {
		if pending {
			dst = snap.I32(dst, int32(id))
			n++
		}
	}
	snap.PutU32(dst, at, uint32(n))

	at, n = len(dst), 0
	dst = snap.U32(dst, 0)
	for id := range d.inits {
		st := &d.inits[id]
		if st.waveStart < 0 && st.seen.len() == 0 {
			continue
		}
		n++
		dst = snap.I32(dst, int32(id))
		dst = snap.I64(dst, st.waveStart)
		dst = snap.U32(dst, uint32(st.seen.len()))
		for _, k := range d.sortedKeys(&st.seen) {
			dst = snap.U64(dst, k)
		}
	}
	snap.PutU32(dst, at, uint32(n))

	for _, c := range d.counters() {
		dst = snap.I64(dst, *c)
	}
	return dst
}

// counters lists the cumulative counters in snapshot order.
func (d *Detector) counters() [7]*int64 {
	return [...]*int64{&d.emitted, &d.forwarded, &d.dropped, &d.returned, &d.relayed, &d.seedRet, &d.flits}
}

// Restore is detect.Capabilities.Restore. It runs after the fabric has been
// restored, so message and channel identifiers are checked against the pool
// and the fabric as they are now, and lists Snapshot writes in order must be
// in that order, so that accepted bytes snapshot back to themselves. The
// per-message tables are reset first and the blocked list's index rebuilt
// from the list.
func (d *Detector) Restore(src []byte) error {
	r := snap.NewReader(src)
	nMsgs, nVCs := d.fab.NumMessages(), len(d.fab.VCs)
	for i := range d.inits {
		d.inits[i].waveStart = -1
		d.inits[i].seen.reset()
	}
	for i := range d.blockedIdx {
		d.blockedIdx[i] = -1
	}
	clear(d.pendingMark)
	if nMsgs > 0 {
		d.growMsg(router.MsgID(nMsgs - 1))
	}

	d.probes = d.probes[:0]
	for n := r.Len(prSnapBytes); n > 0 && r.Err() == nil; n-- {
		d.probes = append(d.probes, pr{
			initiator: router.MsgID(r.ID(0, nMsgs)),
			target:    router.MsgID(r.ID(0, nMsgs)),
			at:        router.VCID(r.ID(0, nVCs)),
			hops:      r.I32(),
			victim:    router.MsgID(r.ID(0, nMsgs)),
			digest:    r.U64(),
			victimGen: r.I64(),
		})
	}
	// An identifier read after an error is not range-checked, so nothing
	// below indexes with one.
	d.blocked = snap.ReadIDs(&r, d.blocked, 0, nMsgs)
	for i, id := range d.blocked {
		if r.Err() != nil {
			break
		}
		if d.blockedIdx[id] >= 0 {
			r.Failf("probe: snapshot lists blocked message %d twice", id)
		}
		d.blockedIdx[id] = int32(i)
	}
	// Snapshot writes the pending marks and the windows in ascending message
	// order and each window's keys ascending, so anything else — a repeat
	// included — is an encoding it never produces and would not reproduce.
	last := int32(-1)
	for n := r.Len(4); n > 0; n-- {
		id := r.ID(0, nMsgs)
		if r.Err() != nil {
			break
		}
		if id <= last {
			r.Failf("probe: snapshot lists pending mark %d after %d", id, last)
			break
		}
		d.pendingMark[id], last = true, id
	}
	last = -1
	for n := r.Len(4 + 8 + 4); n > 0 && r.Err() == nil; n-- {
		id, waveStart, keys := r.ID(0, nMsgs), r.I64(), r.Len(8)
		if r.Err() != nil {
			break
		}
		if id <= last {
			r.Failf("probe: snapshot lists the dedupe window of message %d after that of %d", id, last)
			break
		}
		if waveStart < 0 && keys == 0 {
			r.Failf("probe: snapshot lists the dedupe window of message %d in its initial state", id)
			break
		}
		last = id
		st := &d.inits[id]
		st.waveStart = waveStart
		var prev uint64
		for i := 0; i < keys && r.Err() == nil; i++ {
			k := r.U64()
			if i > 0 && k <= prev {
				r.Failf("probe: snapshot's dedupe window of message %d lists key %#x after %#x", id, k, prev)
			}
			st.seen.add(k)
			prev = k
		}
	}
	for _, c := range d.counters() {
		*c = r.I64()
	}
	return r.Done()
}

// appendGenRank encodes a probe's victim generation stamp relative to the
// live message population: freshness plus strictly-less / equal counts.
func (d *Detector) appendGenRank(buf []byte, victim router.MsgID, gen int64) []byte {
	var fresh, lt, eq byte
	if vm := d.fab.Msg(victim); vm != nil && vm.GenTime == gen {
		fresh = 1
	}
	d.fab.LiveMessages(func(m *router.Message) {
		switch {
		case m.GenTime < gen:
			lt++
		case m.GenTime == gen:
			eq++
		}
	})
	return append(buf, fresh, lt, eq)
}

// appendID appends a small signed value as two little-endian bytes (-1
// survives as 0xffff; model-checked fabrics keep every ID tiny).
func appendID(buf []byte, v int32) []byte {
	return append(buf, byte(v), byte(v>>8))
}

// FNV-1a parameters for the rolling path digest.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func digestSeed(initiator router.MsgID) uint64 {
	return (fnvOffset ^ uint64(initiator)) * fnvPrime
}

// roll folds one wait edge (output link, worm occupying it) into the path
// digest a probe carries. Distinct edge sequences collide with probability
// ~2^-64 per pair, so the digest identifies the chase path in practice.
func roll(d uint64, out router.LinkID, occ router.MsgID) uint64 {
	d = (d ^ uint64(out)) * fnvPrime
	d = (d ^ uint64(occ)) * fnvPrime
	return d
}

// edgeKey hashes one wait edge in isolation — the per-wave dedupe key.
// Unlike the rolling path digest it is path-independent, so a wave chases
// each edge at most once no matter how many routes lead to it.
func edgeKey(out router.LinkID, occ router.MsgID) uint64 {
	return roll(fnvOffset, out, occ)
}
