package mc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// node is one frontier entry. The frontier is a parent-linked tree, not a
// list of paths: node i was reached from node parent by the choice vector
// eff, and its path — the vectors from the root down to it — is rebuilt by
// walking the links only when the node is dispatched for expansion or
// reports a violation. Every node stays in the frontier for the whole
// check (its descendants' paths run through it), at the cost of its link,
// its depth and one cycle's vector.
type node struct {
	parent int32
	depth  int32
	eff    []uint8
}

// pathOf writes node i's choice path into dst[:0], root first.
func pathOf(nodes []node, i int, dst [][]uint8) [][]uint8 {
	d := int(nodes[i].depth)
	dst = slices.Grow(dst[:0], d)[:d]
	for ; d > 0; d-- {
		dst[d-1] = nodes[i].eff
		i = int(nodes[i].parent)
	}
	return dst
}

// Check exhaustively explores the reachable state space of the configured
// fabric and workload, breadth-first over cycle boundaries, and reports the
// first (cycle-minimal) invariant violation, if any. Frontier states are
// expanded on runtime.GOMAXPROCS(0) workers; the result does not depend on
// how many.
func Check(o Options) (*Result, error) {
	res, _, err := explore(o, runtime.GOMAXPROCS(0))
	return res, err
}

// batchParents is how many frontier parents one batch carries. Expanding a
// parent replays its path from the root and steps each of its leaves, tens
// of microseconds on the tiny fabrics, so a handoff per four parents is
// noise; small batches keep the in-flight window — and the work thrown away
// when the check stops — short.
const batchParents = 4

// explore is Check on the given number of workers, also returning the
// visited set (the differential test compares it with the replay
// reference's).
//
// The calling goroutine is the merger. It owns the frontier, the visited set
// and the Result; it hands parents out in queue order, in batches, keeping at
// most two batches per worker in flight, and consumes the expansions strictly
// in queue order, doing all the bookkeeping there. Each worker owns one
// runner — one engine — and expands a parent as a pure function of its path:
// restore the root snapshot, step the path, snapshot the parent, then one
// restore and one step per decision vector of the next cycle. So the merger
// sees the same children in the same order as a single loop would, and the
// Result and the visited set are the same for any worker count. Workers and
// their runners start at the first expansion, as the root snapshot does, so
// a check that stops at its root state pays for neither.
func explore(o Options, workers int) (*Result, map[key]struct{}, error) {
	if err := o.applyDefaults(); err != nil {
		return nil, nil, err
	}
	res := &Result{Mechanism: o.Mechanism}
	visited := make(map[key]struct{})

	// Root state: cycle 0, nothing injected yet.
	r, err := o.newRunner(nil)
	if err != nil {
		return nil, nil, err
	}
	visited[hashState(r.encode(nil))] = struct{}{}
	res.States = 1
	nodes := []node{{parent: -1}}

	var p *pipeline
	defer func() {
		if p != nil {
			p.stop()
		}
	}()
	capped := false
	progress := newProgress(&o, res)
	expandable := func(i int) bool { return o.MaxDepth == 0 || int(nodes[i].depth) < o.MaxDepth }
	for head := 0; head < len(nodes); head++ {
		depth := int(nodes[head].depth)
		res.Depth = max(res.Depth, depth)
		if !expandable(head) {
			res.DepthCapped = true
			continue // checked, not expanded
		}
		if len(visited) >= o.MaxStates {
			capped = true
			break
		}
		if p == nil {
			if p, err = o.startPipeline(r, workers); err != nil {
				return nil, nil, err
			}
		}
		// Keep the workers fed: dispatch every expandable node not yet
		// handed out, while the window has room and the cap is not reached
		// (past it the merger stops at the next expandable node anyway).
		for p.next < len(nodes) && p.room() && len(visited) < o.MaxStates {
			if expandable(p.next) {
				p.add(nodes, p.next)
			}
			p.next++
		}
		p.flush()
		e := p.take(head)
		if e.err != nil {
			return nil, nil, e.err
		}
		for _, c := range e.kids {
			res.Leaves++
			if _, seen := visited[c.key]; seen {
				continue
			}
			visited[c.key] = struct{}{}
			res.States++
			if c.probe.deadlocked {
				res.DeadlockStates++
				res.TrueMarks += c.probe.trueMarks
			}
			nodes = append(nodes, node{parent: int32(head), depth: int32(depth + 1), eff: c.eff})
			if v := c.probe.violation; v != nil {
				v.Path = pathOf(nodes, len(nodes)-1, nil)
				res.Violation = v
				return res, visited, nil
			}
			if res.States%50000 == 0 {
				progress.line(len(nodes) - head - 1)
			}
		}
		if v := e.safety; v != nil {
			res.Leaves++
			v.Path = append(pathOf(nodes, head, nil), v.Path[0])
			res.Violation = v
			return res, visited, nil
		}
	}
	res.Complete = !capped
	return res, visited, nil
}

// expansion is one parent's work order and its outcome: the parent's path
// in, and out every trial that stepped cleanly, in odometer order, then the
// trial whose step failed, if one did.
type expansion struct {
	index int
	path  [][]uint8

	kids   []child
	safety *Violation // Path holds the failing trial alone; the merger prepends the parent's
	err    error      // the parent itself could not be rebuilt: the check is invalid
}

// child is one trial's outcome: the state it reached, the choice vector that
// reached it and, if that state is deadlocked, its liveness probe. The
// merger keeps the vector and applies the probe only when the state is new.
type child struct {
	key   key
	eff   []uint8
	probe probeOutcome
}

// batch is the unit of handoff: a few parents' expansions, in queue order,
// and the channel its worker signals when all are done.
type batch struct {
	exps []expansion
	done chan struct{}
}

// pipeline is the merger's side of the workers: the batches in flight,
// oldest first, and how far the merger has taken the oldest; the batch being
// filled; and the next frontier index to dispatch.
type pipeline struct {
	jobs     chan *batch
	wg       sync.WaitGroup
	window   int      // batches allowed in flight
	inflight []*batch // oldest first
	taken    int      // expansions of inflight[0] already taken
	free     []*batch
	open     *batch // being filled, not yet sent
	next     int
}

// startPipeline starts the workers. r, which has not moved from the initial
// state, becomes the first worker's runner, and its snapshot is the root
// every worker restores.
func (o *Options) startPipeline(r *runner, workers int) (*pipeline, error) {
	workers = max(workers, 1)
	root := r.snapshot(nil)
	runners := []*runner{r}
	for len(runners) < workers {
		w, err := o.newRunner(nil)
		if err != nil {
			return nil, err
		}
		runners = append(runners, w)
	}
	p := &pipeline{window: 2 * workers}
	// Sized to the window: the merger never blocks handing out a batch.
	p.jobs = make(chan *batch, p.window)
	for _, w := range runners {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.work(p, root)
		}()
	}
	return p, nil
}

// room reports whether another parent can be dispatched: the open batch has
// space, or another batch may go in flight.
func (p *pipeline) room() bool {
	if p.open != nil {
		return len(p.open.exps) < batchParents
	}
	return len(p.inflight) < p.window
}

// add appends frontier node i, with its path, to the open batch, and sends
// the batch once it is full.
func (p *pipeline) add(nodes []node, i int) {
	if p.open == nil {
		if n := len(p.free); n > 0 {
			p.open, p.free = p.free[n-1], p.free[:n-1]
			p.open.exps = p.open.exps[:0]
		} else {
			p.open = &batch{done: make(chan struct{}, 1)}
		}
	}
	b := p.open
	if len(b.exps) < cap(b.exps) {
		b.exps = b.exps[:len(b.exps)+1] // reuse the recycled path and kids buffers
	} else {
		b.exps = append(b.exps, expansion{})
	}
	e := &b.exps[len(b.exps)-1]
	e.index, e.path = i, pathOf(nodes, i, e.path)
	if len(b.exps) == batchParents {
		p.flush()
	}
}

// flush sends the open batch, full or not: the merger is about to wait, and
// a parent held back now would idle a worker.
func (p *pipeline) flush() {
	if p.open == nil {
		return
	}
	p.inflight = append(p.inflight, p.open)
	p.jobs <- p.open
	p.open = nil
}

// take returns frontier node i's expansion, waiting for its batch. Nodes are
// taken in dispatch order, so i is the oldest batch's next expansion. A batch
// is recycled once its last expansion is taken; the expansion stays valid
// until the next add.
func (p *pipeline) take(i int) *expansion {
	b := p.inflight[0]
	if p.taken == 0 {
		<-b.done
	}
	e := &b.exps[p.taken]
	if e.index != i {
		panic(fmt.Sprintf("mc: frontier node %d taken, node %d was dispatched", i, e.index))
	}
	if p.taken++; p.taken == len(b.exps) {
		p.inflight, p.taken = p.inflight[1:], 0
		p.free = append(p.free, b)
	}
	return e
}

// stop closes the queue and waits for the workers to exit. They finish what
// is in flight first: at most two batches each.
func (p *pipeline) stop() {
	close(p.jobs)
	p.wg.Wait()
}

// work is one worker's loop: expand every parent of every batch handed out,
// until the merger closes the queue.
func (r *runner) work(p *pipeline, root []byte) {
	var parent, enc []byte
	for b := range p.jobs {
		for k := range b.exps {
			parent, enc = r.expand(&b.exps[k], root, parent, enc)
		}
		b.done <- struct{}{}
		// The send readied the merger on this worker's processor, behind
		// this worker: yield to it, or it would wait for the scheduler to
		// preempt a worker (10 ms) while the window drains.
		runtime.Gosched()
	}
}

// expand rebuilds e's parent — restore the root, step the path, snapshot —
// and enumerates every decision vector of the next cycle: run with a trial
// prefix (defaults beyond it), observe the branching structure actually
// traversed, then advance the trial like an odometer with per-position
// arities. It returns its snapshot and encoding buffers for reuse.
func (r *runner) expand(e *expansion, root, parent, enc []byte) ([]byte, []byte) {
	e.kids, e.safety, e.err = e.kids[:0], nil, nil
	if err := r.restore(root); err != nil {
		e.err = err
		return parent, enc
	}
	if err := r.stepPath(e.path); err != nil {
		e.err = err
		return parent, enc
	}
	parent = r.snapshot(parent[:0])
	var trial []uint8
	for {
		// Each trial starts from the parent: the previous one stepped the
		// runner, and its liveness probe may have run it on for a horizon.
		if err := r.restore(parent); err != nil {
			e.err = err
			return parent, enc
		}
		eff, arity, err := r.step(trial)
		if err != nil {
			e.safety = &Violation{
				Kind:   "safety",
				Detail: err.Error(),
				Path:   [][]uint8{slices.Clone(trial)},
				Cycle:  r.eng.Now(),
			}
			return parent, enc
		}
		enc = r.encode(enc[:0])
		c := child{key: hashState(enc), eff: eff}
		// The liveness probe consumes the runner (it steps past the
		// child), so it runs after encoding. Whether the child is new is
		// the merger's to know: every deadlocked child is probed.
		c.probe = r.livenessProbe()
		e.kids = append(e.kids, c)
		if trial = nextTrial(eff, arity); trial == nil {
			return parent, enc
		}
	}
}

// progress writes Options.Log's one-line reports: the totals, and the rates
// since the previous line — states per second, and the dedup hit rate, the
// share of explored interleavings that led to a state already visited
// (1 - new states / leaves).
type progress struct {
	o              *Options
	res            *Result
	at             time.Time
	states, leaves int
}

func newProgress(o *Options, res *Result) *progress {
	if o.Log == nil {
		return nil
	}
	return &progress{o: o, res: res, at: time.Now(), states: res.States}
}

// line reports the exploration's progress with the given frontier length. A
// nil progress (no Options.Log) reports nothing.
func (p *progress) line(frontier int) {
	if p == nil {
		return
	}
	now := time.Now()
	states, leaves := p.res.States-p.states, p.res.Leaves-p.leaves
	fmt.Fprintf(p.o.Log, "mc: %s: %d states, %d leaves, depth %d, %d deadlocked, %.0f states/s, dedup %.1f%%, frontier %d\n",
		p.o.Mechanism, p.res.States, p.res.Leaves, p.res.Depth, p.res.DeadlockStates,
		float64(states)/now.Sub(p.at).Seconds(), 100*(1-float64(states)/float64(leaves)), frontier)
	p.at, p.states, p.leaves = now, p.res.States, p.res.Leaves
}

// nextTrial advances the cycle's decision odometer: find the last position
// whose choice has an unexplored sibling, bump it, truncate the rest (they
// re-enumerate from defaults). Determinism guarantees the bumped position
// exists with the same arity on the next run, because the choices before it
// are unchanged.
func nextTrial(eff, arity []uint8) []uint8 {
	for i := len(eff) - 1; i >= 0; i-- {
		if eff[i]+1 < arity[i] {
			t := slices.Clone(eff[:i+1])
			t[i]++
			return t
		}
	}
	return nil
}
