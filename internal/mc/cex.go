package mc

import (
	"fmt"
	"io"
	"slices"

	"wormnet/internal/trace"
)

// verifyPath replays one full choice path and reports the violation it
// produces (safety during the replay, liveness/mark-economy from
// the terminal state's probe), or nil if the path is clean. Used by the
// minimizer to test candidate simplifications.
func verifyPath(o Options, path [][]uint8) (*Violation, error) {
	if err := o.applyDefaults(); err != nil {
		return nil, err
	}
	r, err := o.newRunner(nil)
	if err != nil {
		return nil, err
	}
	for _, vec := range path {
		if _, _, err := r.step(vec); err != nil {
			return &Violation{Kind: "safety", Detail: err.Error(), Path: path, Cycle: r.eng.Now()}, nil
		}
	}
	if v := r.livenessProbe().violation; v != nil {
		v.Path = path
		return v, nil
	}
	return nil, nil
}

// Minimize greedily simplifies a violation's choice path while preserving a
// violation of the same kind: trailing cycles are dropped, then every
// non-default choice is individually lowered to the default, then trailing
// choices within each cycle vector are trimmed (defaults re-derive them).
// The result is the canonical counterexample committed as a regression
// seed: shortest by construction (BFS found the depth), default-most by
// greedy descent.
func Minimize(o Options, v *Violation) (*Violation, error) {
	best := v
	accept := func(path [][]uint8) (bool, error) {
		cand, err := verifyPath(o, path)
		if err != nil {
			return false, err
		}
		if cand != nil && cand.Kind == best.Kind {
			best = cand
			return true, nil
		}
		return false, nil
	}
	// Drop trailing cycles (the default continuation may reach the same
	// violation without the explicit suffix).
	for len(best.Path) > 0 {
		ok, err := accept(slices.Clone(best.Path[:len(best.Path)-1]))
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	// Lower non-default choices.
	for c := 0; c < len(best.Path); c++ {
		for i := 0; i < len(best.Path[c]); i++ {
			if best.Path[c][i] == 0 {
				continue
			}
			cand := clonePath(best.Path)
			cand[c][i] = 0
			if _, err := accept(cand); err != nil {
				return nil, err
			}
		}
	}
	// Trim trailing default choices (pure cosmetics: the chooser derives
	// defaults past the vector's end).
	final := clonePath(best.Path)
	for c := range final {
		vec := final[c]
		for len(vec) > 0 && vec[len(vec)-1] == 0 {
			vec = vec[:len(vec)-1]
		}
		final[c] = vec
	}
	if cand, err := verifyPath(o, final); err != nil {
		return nil, err
	} else if cand != nil && cand.Kind == best.Kind {
		best = cand
	}
	return best, nil
}

func clonePath(p [][]uint8) [][]uint8 {
	out := make([][]uint8, len(p))
	for i := range p {
		out[i] = slices.Clone(p[i])
	}
	return out
}

// WriteTrace replays a violation's choice path with the flight recorder
// streaming into w as JSONL, then continues the deterministic default
// schedule up to the liveness horizon (or until the oracle set drains) so
// the stream shows the failure: formation of the deadlock, the detector's
// flag transitions, and — for liveness violations — the absence of the mark
// that should have come. The output is a standard trace stream; render it
// with `wormview trace`.
func WriteTrace(o Options, path [][]uint8, w io.Writer) error {
	if err := o.applyDefaults(); err != nil {
		return err
	}
	rec := trace.NewStreaming(w, 1024)
	r, err := o.newRunner(rec)
	if err != nil {
		return err
	}
	stepErr := error(nil)
	for _, vec := range path {
		if _, _, err := r.step(vec); err != nil {
			stepErr = err // safety counterexample: the stream ends at the failing cycle
			break
		}
	}
	if stepErr == nil {
		for t := 0; t < o.Horizon && len(r.eng.Oracle().Deadlocked()) > 0; t++ {
			if _, _, err := r.step(nil); err != nil {
				break
			}
		}
	}
	if err := rec.Flush(); err != nil {
		return fmt.Errorf("mc: trace sink: %w", err)
	}
	return nil
}
