package mc

import (
	"fmt"
	"slices"
	"time"
)

// node is one frontier entry: the per-cycle choice vectors that reach its
// state from the initial state. Depth is len(path). The frontier keeps paths,
// not snapshots — a path is a few bytes a cycle — and Check rebuilds a node's
// state when it is dequeued (the engine is deterministic under a recorded
// choice sequence).
type node struct {
	path [][]uint8
}

// Check exhaustively explores the reachable state space of the configured
// fabric and workload, breadth-first over cycle boundaries, and reports the
// first (cycle-minimal) invariant violation, if any.
//
// One runner — one engine — serves the whole exploration. A dequeued node's
// state is rebuilt once, by restoring the root snapshot and stepping the
// node's path, and snapshotted; every decision vector of the next cycle is
// then one restore of that snapshot plus one step, however deep the node is.
func Check(o Options) (*Result, error) {
	res, _, err := explore(o)
	return res, err
}

// explore is Check, also returning the visited set (the differential test
// compares it with the replay reference's).
func explore(o Options) (*Result, map[key]struct{}, error) {
	if err := o.applyDefaults(); err != nil {
		return nil, nil, err
	}
	res := &Result{Mechanism: o.Mechanism}
	visited := make(map[key]struct{})
	var queue []node

	// Root state: cycle 0, nothing injected yet.
	r, err := o.newRunner(nil)
	if err != nil {
		return nil, nil, err
	}
	visited[hashState(r.encode(nil))] = struct{}{}
	res.States = 1
	queue = append(queue, node{})

	// rootSnap is taken at the first expansion, not here: a check that stops
	// at its root state (MaxStates 1, MaxDepth reached at once) never needs it.
	var rootSnap, parentSnap, enc []byte
	capped := false
	progress := newProgress(&o, res)
	// Sample every 31st new state so fuzz seeds spread across depths
	// instead of clustering at the shallow frontier (the second state —
	// the first real step — is always included).
	seedStride := 31
	if o.CollectSeeds > 0 {
		seedStride = max(2, min(seedStride, o.MaxStates/o.CollectSeeds))
	}
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		queue[head].path = nil // release the dequeued path
		depth := len(n.path)
		if depth > res.Depth {
			res.Depth = depth
		}
		if o.MaxDepth > 0 && depth >= o.MaxDepth {
			res.DepthCapped = true
			continue // checked, not expanded
		}
		if len(visited) >= o.MaxStates {
			capped = true
			break
		}
		if rootSnap == nil {
			rootSnap = r.snapshot(nil) // the runner has not moved yet
		}
		if err := r.restore(rootSnap); err != nil {
			return nil, nil, err
		}
		if err := r.stepPath(n.path); err != nil {
			return nil, nil, err
		}
		parentSnap = r.snapshot(parentSnap[:0])
		// Enumerate every decision vector of the next cycle: run with a
		// trial prefix (defaults beyond it), observe the branching
		// structure actually traversed, then advance the trial like an
		// odometer with per-position arities.
		var trial []uint8
		for {
			// Each trial starts from the parent: the previous one stepped the
			// runner, and its liveness probe may have run it on for a horizon.
			if err := r.restore(parentSnap); err != nil {
				return nil, nil, err
			}
			eff, arity, err := r.step(trial)
			res.Leaves++
			if err != nil {
				res.Violation = &Violation{
					Kind:   "safety",
					Detail: err.Error(),
					Path:   appendPath(n.path, slices.Clone(trial)),
					Cycle:  r.eng.Now(),
				}
				return res, visited, nil
			}
			enc = r.encode(enc[:0])
			k := hashState(enc)
			if _, seen := visited[k]; !seen {
				visited[k] = struct{}{}
				res.States++
				childPath := appendPath(n.path, eff)
				if o.CollectSeeds > 0 && len(res.Seeds) < o.CollectSeeds && (res.States == 2 || res.States%seedStride == 0) {
					res.Seeds = append(res.Seeds, slices.Clone(enc))
				}
				// The liveness probe consumes the runner (it steps past
				// the frontier state), so it runs after encoding.
				if v := r.livenessProbe(res); v != nil {
					v.Path = childPath
					res.Violation = v
					return res, visited, nil
				}
				queue = append(queue, node{path: childPath})
				if res.States%50000 == 0 {
					progress.line(len(queue) - head - 1)
				}
			}
			if trial = nextTrial(eff, arity); trial == nil {
				break
			}
		}
	}
	res.Complete = !capped
	return res, visited, nil
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

// appendPath clones the prefix and appends one cycle vector (paths are
// shared across frontier entries, so the prefix must not be aliased).
func appendPath(prefix [][]uint8, vec []uint8) [][]uint8 {
	out := make([][]uint8, len(prefix)+1)
	copy(out, prefix)
	out[len(prefix)] = vec
	return out
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
