package mc

import (
	"fmt"
	"slices"
)

// node is one frontier entry: the per-cycle choice vectors that reach its
// state from the initial state. Depth is len(path); the state itself is
// reconstructed by replay (the engine is deterministic under a recorded
// choice sequence).
type node struct {
	path [][]uint8
}

// Check exhaustively explores the reachable state space of the configured
// fabric and workload, breadth-first over cycle boundaries, and reports the
// first (cycle-minimal) invariant violation, if any.
func Check(o Options) (*Result, error) {
	if err := o.applyDefaults(); err != nil {
		return nil, err
	}
	res := &Result{Mechanism: o.Mechanism}
	visited := make(map[key]struct{})
	var queue []node

	// Root state: cycle 0, nothing injected yet.
	root, err := o.replay(nil)
	if err != nil {
		return nil, err
	}
	visited[hashState(root.encode(nil))] = struct{}{}
	res.States = 1
	queue = append(queue, node{})

	var enc []byte
	capped := false
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
		// Enumerate every decision vector of the next cycle: run with a
		// trial prefix (defaults beyond it), observe the branching
		// structure actually traversed, then advance the trial like an
		// odometer with per-position arities.
		var trial []uint8
		for {
			r, err := o.replay(n.path)
			if err != nil {
				return nil, err
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
				return res, nil
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
					return res, nil
				}
				queue = append(queue, node{path: childPath})
				if o.Log != nil && res.States%50000 == 0 {
					fmt.Fprintf(o.Log, "mc: %s: %d states, %d leaves, depth %d, %d deadlocked\n",
						o.Mechanism, res.States, res.Leaves, res.Depth, res.DeadlockStates)
				}
			}
			if trial = nextTrial(eff, arity); trial == nil {
				break
			}
		}
	}
	res.Complete = !capped
	return res, nil
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
