package sim

import (
	"fmt"

	"wormnet/internal/deadlock"
	"wormnet/internal/detect"
	"wormnet/internal/metrics"
	"wormnet/internal/recovery"
	"wormnet/internal/rng"
	"wormnet/internal/router"
	"wormnet/internal/routing"
	"wormnet/internal/snap"
	"wormnet/internal/stats"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// Result is what one simulation run produces.
type Result struct {
	stats.Counters
	// Detector names the mechanism that was active.
	Detector string
	// TotalCycles includes warm-up.
	TotalCycles int64
	// LatencyHist is the generation-to-delivery latency distribution over
	// delivered messages in the measurement window.
	LatencyHist *stats.Histogram
	// DetectDelayHist is the distribution of detection delay — cycles from
	// a message's first failed routing attempt at its final node to the
	// moment it was marked as deadlocked.
	DetectDelayHist *stats.Histogram
	// DetectLatencyHist is the distribution of detection latency — cycles
	// from the oracle first observing a message in the deadlocked set to the
	// detector marking it. It only accumulates samples when OracleEvery > 0
	// (the oracle must run independently of marks to provide the reference
	// time) and is empty otherwise.
	DetectLatencyHist *stats.Histogram
}

// Engine simulates one network, cycle by cycle. Build one with New, then
// call Run (or Step repeatedly for fine-grained control).
type Engine struct {
	cfg    Config
	topo   *topology.Torus
	fab    *router.Fabric
	det    detect.Detector
	oracle *deadlock.Oracle
	rec    *recovery.Engine
	rnd    *rng.Source
	gen    *traffic.Generator
	alg    routing.Algorithm

	// st holds the whole-run totals, every event counted once, warm-up
	// included; base and end are its readings when cycles Warmup and
	// Warmup+Measure begin, so the measurement window is their difference
	// (Stats). measuring is true inside the window: only the window's
	// histograms and maxima (MaxLatency, MaxDeadlockSet) check it. view is
	// what Stats returns a pointer to.
	now        int64
	measuring  bool
	st         stats.Counters
	base, end  stats.Counters
	view       stats.Counters
	latHist    *stats.Histogram
	delayHist  *stats.Histogram
	detLatHist *stats.Histogram

	// tr is the flight recorder; nil when tracing is off. All Recorder
	// methods are nil-safe, so emit sites do not guard the pointer.
	tr *trace.Recorder
	// mc is the live metrics collector; nil when metrics are off. Collector
	// methods are nil-safe, so observation sites do not guard the pointer.
	mc *metrics.Collector
	// caps is the detector's capability report, read once in New; every
	// field may be nil. probesInFlight is the probes-in-flight gauge of the
	// ProbeTotals Step read after this cycle's EndCycle, for ProbeMetrics.
	caps           detect.Capabilities
	probesInFlight int
	// oracleSeen[id] is the cycle the oracle first observed message id in
	// the deadlocked set (-1 = not currently deadlocked). Cleared when the
	// message routes, delivers, or is re-queued. Grown on demand; in steady
	// state the message pool is fixed, so no allocation per cycle.
	oracleSeen []int64

	// Per-node FIFO source queues of messages waiting for an injection
	// port (both freshly generated and recovered messages).
	queues []msgQueue
	// Messages whose header is waiting to be routed. Headers that arrived
	// (or were injected) during cycle T enter pendingNew and become
	// routable in cycle T+1, charging the paper's 1-cycle routing delay.
	// (Messages still being fed flits live on the injecting list.)
	pending    []router.MsgID
	pendingNew []router.MsgID
	// injecting lists the admitted messages whose source is still feeding
	// flits, in admission order.
	injecting []router.MsgID

	// nodeRng gives every node its own generation stream, so the draws a
	// node sees are a pure function of (seed, node).
	nodeRng []rng.Source

	// Active sets (see stages.go). genDue[node] is the node's next arrival
	// cycle (-1 = never), genHeap a binary min-heap of the scheduled nodes
	// keyed by (due, node), genDefA the nodes whose arrival was deferred by a
	// full queue last cycle (due this cycle, node-ascending by construction)
	// and genDefB this cycle's deferrals;
	// generate swaps the two at the end of the stage. neBits is the
	// nonempty-queue bitmap: bit i means node i has a waiting source queue,
	// and word-ascending, bit-ascending iteration yields node-ascending
	// (canonical admit) order without sorting. inFlight counts worms
	// currently in the network (admitted, not yet delivered or re-queued)
	// for the metrics gauge. linkKey[l] is output link l's canonical
	// arbitration key node*span+k (network output links before delivery
	// ports, each in port order; -1 for injection links, which are never
	// transfer targets) and keyLink its inverse, both precomputed so the
	// transfer stage marks and decodes active links without a divide;
	// keyBits is the active-output-link bitmap over those keys.
	genDue   []int64
	genHeap  []int32
	genDefA  []int32
	genDefB  []int32
	neBits   []uint64
	linkKey  []int32
	keyLink  []router.LinkID
	keyBits  []uint64
	inFlight int

	// Per-cycle scratch state.
	transmitted []bool          // flit crossed link l this cycle
	txLinks     []router.LinkID // links with transmitted set this cycle
	moves       []router.VCID   // transfer winners, decision order
	inputUsed   []bool          // input channel l sent a flit this cycle; transferCommit clears it
	// The feeder table: target link l's row is feed[l*feedStride:][:feedN[l]],
	// the VCs requesting to send into l, ascending, a slot per VC of the widest
	// link. transferDecide fills and drains every row; every count is zero
	// between stages. feedErr is the first failure auditFeedRows found (Debug
	// only).
	feed       []router.VCID
	feedN      []uint8
	feedStride int
	feedErr    error
	// Routing scratch: the candidate VCs of the header being routed, and
	// their physical channels for the detector.
	cands   []router.VCID
	candBuf []router.LinkID

	marksThisCycle int
	oracleRan      bool // the oracle has run this cycle
	oracleSize     int  // size of the most recent oracle deadlock set

	// chooser, when non-nil, resolves VC selection and arbitration
	// externally (see choose.go); freeCands and arbElig are its scratch
	// option lists.
	chooser   Chooser
	freeCands []router.VCID
	arbElig   []router.VCID

	// refStage is the differential-test seam: nil outside internal/sim's
	// own tests, which install full-rescan reference stages through it (it
	// reports whether it ran phase ph in place of the kernel's).
	refStage func(ph phaseID) bool

	// Snapshot/Restore (snapshot.go): snapID caches the configuration
	// fingerprint, built on first use; rd is the reader of the Restore in
	// progress; saved is the restore copy (restorecopy.go), allocated by the
	// first Restore, so an engine that never restores carries none. listed
	// is the scratch of the listed-at-most-once checks: Restore's, and the
	// Debug audits' of the pending list and the arrival heap.
	snapID []byte
	rd     snap.Reader
	saved  *restoreCopy
	listed []uint8
}

// New builds an Engine from cfg once cfg.Validate accepts it; cfg is used
// as given.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := topology.New(cfg.K, cfg.N)
	fab, err := router.NewFabric(topo, cfg.Router)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		topo:       topo,
		fab:        fab,
		oracle:     deadlock.New(fab),
		rnd:        rng.New(cfg.Seed),
		latHist:    stats.NewHistogram(1.25),
		delayHist:  stats.NewHistogram(1.25),
		detLatHist: stats.NewHistogram(1.25),
		alg:        cfg.Routing,
		tr:         cfg.Trace,
		mc:         cfg.Metrics,
		chooser:    cfg.Chooser,
	}
	e.oracle.SetCandidates(func(m *router.Message, node int, buf []router.VCID) []router.VCID {
		return e.alg.Candidates(fab, m, node, buf)
	})
	if cfg.Detector != nil {
		e.det = cfg.Detector(fab)
	} else {
		e.det = detect.None{}
	}
	e.caps = e.det.Capabilities()
	if e.caps.SetTracer != nil {
		e.caps.SetTracer(e.tr)
	}
	e.mc.Attach(e.det.Name(), topo.N())
	e.rec = recovery.New(fab, cfg.Recovery, recovery.Hooks{
		VCFreed: func(l router.LinkID) {
			e.tr.Emit(trace.KindVCFree, router.NilMsg, l, -1, 0, -1)
			e.det.VCFreed(l)
		},
		Recovered: e.onRecovered,
	})
	e.gen = traffic.NewGenerator(cfg.Pattern(topo), cfg.Lengths, cfg.Load)
	e.queues = make([]msgQueue, topo.Nodes())
	e.transmitted = make([]bool, fab.NumLinks())
	e.inputUsed = make([]bool, fab.NumLinks())
	// Every node draws generation randomness from its own stream derived
	// from the run seed, so the sequence each node sees is a pure function
	// of (seed, node). The shared stream e.rnd serves VC selection in the
	// routing stage (PickVC).
	e.nodeRng = make([]rng.Source, topo.Nodes())
	for i := range e.nodeRng {
		e.nodeRng[i] = *rng.New(rng.Derive(cfg.Seed, uint64(i)))
	}
	// Active-set structures.
	delBase := int(fab.DelLink(0, 0))
	e.neBits = make([]uint64, (topo.Nodes()+63)/64)
	deg := topo.Degree()
	keySpan := deg + cfg.Router.DelPorts
	e.keyBits = make([]uint64, (topo.Nodes()*keySpan+63)/64)
	e.linkKey = make([]int32, fab.NumLinks())
	e.keyLink = make([]router.LinkID, topo.Nodes()*keySpan)
	for l := range e.linkKey {
		switch {
		case l < fab.NumNetLinks():
			e.linkKey[l] = int32(l/deg*keySpan + l%deg)
		case l >= delBase:
			d := l - delBase
			e.linkKey[l] = int32(d/cfg.Router.DelPorts*keySpan + deg + d%cfg.Router.DelPorts)
		default:
			e.linkKey[l] = -1
			continue
		}
		e.keyLink[e.linkKey[l]] = router.LinkID(l)
	}
	// Skip-ahead generation: every node's per-cycle Bernoulli trial
	// collapses into a geometric inter-arrival countdown. Each node's first
	// gap comes from its own stream, so the schedule stays a pure function
	// of (seed, node).
	e.genDue = make([]int64, topo.Nodes())
	e.genHeap = make([]int32, 0, topo.Nodes())
	e.genDefA = make([]int32, 0, topo.Nodes())
	e.genDefB = make([]int32, 0, topo.Nodes())
	for node := range e.genDue {
		gap, ok := e.gen.NextGap(node, &e.nodeRng[node])
		if !ok {
			e.genDue[node] = -1
			continue
		}
		e.genDue[node] = int64(gap)
		e.heapPush(int32(node))
	}
	// Pre-size the per-cycle scratch buffers to their geometric maxima so
	// the steady-state hot path never grows them: each target VC has at
	// most one upstream feeder (worms occupy distinct VCs), at most every
	// link can transmit in one cycle, and a routing decision considers at
	// most every outgoing link (plus delivery ports) of one router. The
	// widest links are the network links (router.MaxVCsPerLink fits feedN).
	e.feedStride = fab.Cfg.VCsPerLink
	e.feed = make([]router.VCID, fab.NumLinks()*e.feedStride)
	e.feedN = make([]uint8, fab.NumLinks())
	e.txLinks = make([]router.LinkID, 0, fab.NumLinks())
	e.moves = make([]router.VCID, 0, fab.NumLinks())
	maxCands := topo.Degree() + cfg.Router.DelPorts
	e.cands = make([]router.VCID, 0, maxCands*e.feedStride)
	e.candBuf = make([]router.LinkID, 0, maxCands)
	e.st.Nodes = topo.Nodes()
	e.st.NetLinks = fab.NumNetLinks()
	e.base, e.end = e.st, e.st
	return e, nil
}

// Fabric exposes the underlying fabric (for tests and tools).
func (e *Engine) Fabric() *router.Fabric { return e.fab }

// Topology exposes the topology.
func (e *Engine) Topology() *topology.Torus { return e.topo }

// Detector exposes the active detection mechanism.
func (e *Engine) Detector() detect.Detector { return e.det }

// Capabilities returns the capability report the detector handed over at
// construction (the model checker reads its state encoding through it).
func (e *Engine) Capabilities() detect.Capabilities { return e.caps }

// Oracle exposes the global deadlock oracle (for benchmarks and tools).
func (e *Engine) Oracle() *deadlock.Oracle { return e.oracle }

// Now returns the current cycle.
func (e *Engine) Now() int64 { return e.now }

// Stats returns the counters of the measurement window as they stand: zero
// during warm-up, the counts since the window opened inside it, and the
// window's final counts once it has closed. The pointer stays valid until
// the next call.
func (e *Engine) Stats() *stats.Counters {
	switch {
	case e.now <= e.cfg.Warmup:
		e.view = e.base.Sub(&e.base)
	case e.now <= e.cfg.Warmup+e.cfg.Measure:
		e.view = e.st.Sub(&e.base)
	default:
		e.view = e.end.Sub(&e.base)
	}
	return &e.view
}

// LatencyHistogram returns the generation-to-delivery latency distribution
// accumulated so far in the measurement window.
func (e *Engine) LatencyHistogram() *stats.Histogram { return e.latHist }

// DetectLatencyHistogram returns the oracle-to-detection latency
// distribution accumulated so far (see Result.DetectLatencyHist).
func (e *Engine) DetectLatencyHistogram() *stats.Histogram { return e.detLatHist }

// InjectMessage enqueues a message at node src's source queue, bypassing
// the random generator. Combined with Load = 0 it gives deterministic,
// hand-scripted workloads (used by tests and teaching examples).
//
// It honors the same MaxSourceQueue bound the generator does: when src's
// queue is full the message is rejected and nil is returned, leaving no
// trace in the pool or the statistics. (Scripted workloads that outrun the
// injection stage would otherwise grow the queue without limit, which the
// random generator is never allowed to do.)
func (e *Engine) InjectMessage(src, dst, length int) *router.Message {
	if e.queues[src].Len() >= e.cfg.MaxSourceQueue {
		return nil
	}
	return e.enqueueNew(src, dst, length)
}

// Run executes the configured warm-up and measurement phases and returns
// the result.
func (e *Engine) Run() (*Result, error) {
	total := e.cfg.Warmup + e.cfg.Measure
	for e.now < total {
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	// The window is what the engine measured: a run extended by manual Step
	// calls still reports the configured window.
	return &Result{
		Counters:          *e.Stats(),
		Detector:          e.det.Name(),
		TotalCycles:       total,
		LatencyHist:       e.latHist,
		DetectDelayHist:   e.delayHist,
		DetectLatencyHist: e.detLatHist,
	}, nil
}

// StopWorkers does nothing.
//
// Deprecated: the engine is serial and starts no goroutines. StopWorkers
// remains only because the frozen benchmark module (benchmark/) still calls
// it; it goes when that module is next revised.
func (e *Engine) StopWorkers() {}

// Step advances the simulation by one cycle, running the stages of
// stages.go in order on the calling goroutine.
func (e *Engine) Step() error {
	if e.now == e.cfg.Warmup {
		e.base = e.st
	}
	if e.now == e.cfg.Warmup+e.cfg.Measure {
		e.end = e.st
	}
	e.measuring = e.now >= e.cfg.Warmup && e.now < e.cfg.Warmup+e.cfg.Measure
	e.marksThisCycle, e.oracleRan = 0, false
	e.tr.BeginCycle(e.now)

	// Headers that arrived last cycle become routable now (routing takes
	// one cycle).
	e.pending = append(e.pending, e.pendingNew...)
	e.pendingNew = e.pendingNew[:0]

	e.runPhase(phaseGenerate)
	e.runPhase(phaseAdmit)
	e.runPhase(phaseTransferDecide)
	e.transferCommit()
	e.runPhase(phaseDrain)
	e.det.EndCycle(e.now, e.txLinks, e.transmitted)
	// DT flags and probe totals change only inside EndCycle, so this is the
	// one place to read them.
	if e.caps.FlagCounts != nil {
		_, dt, _ := e.caps.FlagCounts()
		e.st.DTFlagCycleSum += int64(dt)
	}
	if e.caps.ProbeTotals != nil {
		pt := e.caps.ProbeTotals()
		e.st.ProbesEmitted, e.st.ProbesForwarded, e.st.ProbesDropped = pt.Emitted, pt.Forwarded, pt.Dropped
		e.st.ProbesReturned, e.st.ProbeFlits = pt.Returned, pt.Flits
		e.probesInFlight = pt.InFlight
	}
	e.route()
	e.feedSources()
	e.rec.Step()

	if e.cfg.OracleEvery > 0 && e.now%e.cfg.OracleEvery == 0 {
		e.runOracle()
		e.st.OracleRuns++
		if n := e.oracleSize; n > 0 {
			e.st.DeadlockCycles++
			e.st.DeadlockedMsgSum += int64(n)
			if e.measuring && n > e.st.MaxDeadlockSet {
				e.st.MaxDeadlockSet = n
			}
		}
	}
	e.st.RecordMarks(e.marksThisCycle)
	e.st.Cycles++
	e.mc.EndCycle(e.now, &e.st, e.rec.AbsorbedFlits(), e)

	if e.cfg.Debug {
		if err := e.fab.CheckInvariants(); err != nil {
			return fmt.Errorf("cycle %d: %w", e.now, err)
		}
		if err := e.oracle.CrossCheck(); err != nil {
			return fmt.Errorf("cycle %d: %w", e.now, err)
		}
		if err := e.auditActiveSets(); err != nil {
			return fmt.Errorf("cycle %d: %w", e.now, err)
		}
		if err := e.auditRouteMemos(); err != nil {
			return fmt.Errorf("cycle %d: %w", e.now, err)
		}
		if e.caps.Audit != nil {
			if err := e.caps.Audit(); err != nil {
				return fmt.Errorf("cycle %d: %w", e.now, err)
			}
		}
	}
	e.now++
	return nil
}

// deliver finalizes a message whose tail has been consumed at its
// destination.
func (e *Engine) deliver(m *router.Message) {
	m.Phase = router.PhaseDelivered
	m.DeliverTime = e.now
	e.inFlight--
	e.tr.Emit(trace.KindDeliver, m.ID, router.NilLink, int32(m.Dst), e.now-m.GenTime, -1)
	e.clearOracleSeen(m.ID)
	lat := e.now - m.GenTime
	e.st.Delivered++
	e.st.DeliveredFlits += int64(m.Length)
	e.st.LatencySum += lat
	e.st.NetLatencySum += e.now - m.InjectTime
	e.mc.ObserveLatency(lat)
	if e.measuring {
		e.latHist.Add(lat)
		if lat > e.st.MaxLatency {
			e.st.MaxLatency = lat
		}
	}
	if !e.cfg.RetainMessages {
		e.fab.FreeMessage(m)
	}
}

// ---------------------------------------------------------------------------
// Stage 5: routing of waiting headers (detection piggybacks on failures).
//
// Headers route in pending order: VC allocation, selection randomness,
// detector transitions and recovery interleave in that order. Staleness is
// checked live: a mark earlier in the list can trigger recovery that releases
// a later message's worm.
//
// The geometry — which directions are minimal — is computed once per hop: the
// first attempt at a router fills the header's route memo
// (router.Fabric.RouteMask) and every retry, the oracle and the detectors read
// it back, so a blocked retry costs a mask load, a failure test per minimal
// link and the occupancy reads of PickVC.

func (e *Engine) route() {
	fab := e.fab
	kept := e.pending[:0]
	for _, id := range e.pending {
		m := fab.Msg(id)
		if m.Phase != router.PhaseNetwork || m.HeadVC == router.NilVC {
			continue // delivered, recovering or aborted meanwhile
		}
		hv := &fab.VCs[m.HeadVC]
		if !hv.HasHeader || hv.Next != router.NilVC {
			continue // stale entry
		}
		if hv.Flits == 0 {
			// Header flit has not arrived yet (can only happen for freshly
			// admitted messages before the first source feed).
			kept = append(kept, id)
			continue
		}
		in := fab.LinkOfVC(m.HeadVC)
		node := fab.RouterOf(in)
		cands := e.alg.Candidates(fab, m, node, e.cands[:0])
		var out router.VCID
		if e.chooser != nil {
			out = e.chooseVC(cands)
		} else {
			out = fab.PickVC(cands, e.rnd)
		}
		if out != router.NilVC {
			fab.Allocate(m, m.HeadVC, out)
			m.Attempts = 0
			// RouteOK precedes the detector call so the conformance replay
			// sees a same-cycle route success before the P transition it
			// causes. A message that routes is no longer deadlocked, so its
			// oracle stamp (if any) is stale.
			e.tr.Emit(trace.KindRouteOK, m.ID, in, int32(node), int64(fab.LinkOfVC(out)), int32(out))
			e.det.RouteSucceeded(m, in)
			e.clearOracleSeen(m.ID)
			continue
		}
		m.Attempts++
		first := m.Attempts == 1
		if first {
			m.BlockedSince = e.now
			// Attempts 0 -> 1 adds this message to the oracle's blocked-set
			// seed without touching fabric state, so the cached deadlocked
			// set must be invalidated explicitly.
			e.oracle.Invalidate()
		}
		// The feasible output physical channels, for the detection
		// hardware (candidate VCs are grouped by link, so deduplicate
		// consecutively).
		e.candBuf = e.candBuf[:0]
		for _, vc := range cands {
			l := fab.LinkOfVC(vc)
			if len(e.candBuf) == 0 || e.candBuf[len(e.candBuf)-1] != l {
				e.candBuf = append(e.candBuf, l)
			}
		}
		// RouteFail precedes the detector call so G/P transition events
		// caused by this failure follow it in the trace.
		e.tr.Emit(trace.KindRouteFail, m.ID, in, int32(node), int64(m.Attempts), -1)
		if e.det.RouteFailed(m, in, e.candBuf, first, e.now) {
			e.mark(m)
			continue
		}
		kept = append(kept, id)
	}
	e.pending = kept
}

// auditRouteMemos is the Debug-mode check of the route memos: the cached
// mask of every live message — pending headers included — must equal a fresh
// computation, and no message may be pending twice.
func (e *Engine) auditRouteMemos() error {
	seen := e.clearListed(e.fab.NumMessages())
	for _, id := range e.pending {
		if seen[id] != 0 {
			return fmt.Errorf("sim: message %d is pending twice", id)
		}
		seen[id] = 1
	}
	var err error
	e.fab.LiveMessages(func(m *router.Message) {
		if err == nil {
			err = e.fab.CheckRouteMemo(m)
		}
	})
	return err
}

// mark hands a message the detector declared deadlocked to the recovery
// engine and classifies the detection with the oracle.
func (e *Engine) mark(m *router.Message) {
	e.runOracle()
	m.TrueDeadlock = e.oracle.Contains(m.ID)
	var verdict int64
	if m.TrueDeadlock {
		verdict = 1
	}
	var node int32 = -1
	if m.HeadVC != router.NilVC {
		node = int32(e.fab.RouterOf(e.fab.LinkOfVC(m.HeadVC)))
	}
	e.tr.Emit(trace.KindDetect, m.ID, router.NilLink, node, verdict, -1)
	e.st.Marked++
	if m.TrueDeadlock {
		e.st.TrueMarked++
	} else {
		e.st.FalseMarked++
	}
	e.marksThisCycle++
	e.mc.ObserveDetectDelay(e.now - m.BlockedSince)
	if e.measuring {
		e.delayHist.Add(e.now - m.BlockedSince)
	}
	if m.TrueDeadlock && int(m.ID) < len(e.oracleSeen) {
		if seen := e.oracleSeen[m.ID]; seen >= 0 {
			e.mc.ObserveDetectLatency(e.now - seen)
			if e.measuring {
				e.detLatHist.Add(e.now - seen)
			}
		}
	}
	e.clearOracleSeen(m.ID)
	e.tr.Emit(trace.KindRecoverStart, m.ID, router.NilLink, node, int64(e.cfg.Recovery), -1)
	e.rec.Mark(m, e.now)
	// Progressive recovery flips the message to PhaseRecovering without
	// releasing a VC, which silently removes it from the oracle's seed;
	// regressive recovery releases the worm (tracked by the fabric's
	// generation counter), so the call is redundant but harmless there.
	e.oracle.Invalidate()
}

// runOracle evaluates the global deadlock oracle at most once per cycle and
// stamps newly deadlocked messages for detection-latency measurement.
func (e *Engine) runOracle() {
	if e.oracleRan {
		return
	}
	set := e.oracle.Deadlocked()
	e.oracleSize = len(set)
	e.oracleRan = true
	for _, id := range set {
		for int(id) >= len(e.oracleSeen) {
			e.oracleSeen = append(e.oracleSeen, -1)
		}
		if e.oracleSeen[id] < 0 {
			e.oracleSeen[id] = e.now
			e.tr.Emit(trace.KindOracleDeadlock, id, router.NilLink, -1, int64(len(set)), -1)
		}
	}
}

// clearOracleSeen forgets a message's oracle-deadlock stamp (it routed,
// delivered, or was re-queued — any future deadlock is a new one).
func (e *Engine) clearOracleSeen(id router.MsgID) {
	if int(id) < len(e.oracleSeen) {
		e.oracleSeen[id] = -1
	}
}

// ---------------------------------------------------------------------------
// Recovery completion.

// onRecovered re-queues (or delivers) a message the recovery engine has
// fully removed from the fabric.
func (e *Engine) onRecovered(m *router.Message, node int) {
	var delivered int64
	if node == int(m.Dst) {
		delivered = 1
	}
	e.tr.Emit(trace.KindRecoverEnd, m.ID, router.NilLink, int32(node), delivered, -1)
	if e.cfg.Recovery == recovery.Progressive {
		e.st.Absorbed++
	} else {
		e.st.Aborted++
	}
	if node == int(m.Dst) {
		// Progressive recovery absorbed the message at its destination:
		// it has been delivered through the recovery path.
		e.st.RecoveredDelivered++
		e.deliver(m)
		return
	}
	e.requeue(m, node)
}

// requeue resets a message's transport state and re-enters it into node's
// source queue.
func (e *Engine) requeue(m *router.Message, node int) {
	e.clearOracleSeen(m.ID)
	m.Phase = router.PhaseQueued
	m.Src = int32(node)
	m.Injected = 0
	m.Consumed = 0
	m.Attempts = 0
	m.Marked = false
	m.InjLink = router.NilLink
	m.Retries++
	e.queuePush(node, m.ID)
	e.inFlight--
	e.st.Reinjected++
}
