package mc

import (
	"fmt"

	"wormnet/internal/sim"
	"wormnet/internal/snap"
	"wormnet/internal/trace"
)

// chooser records and replays the engine's decision sequence. Choices up to
// len(path) are prescribed; beyond it the default (0) is taken. Every call
// appends its arity, so after a cycle the caller knows the full branching
// structure it just traversed (the odometer in explore.go enumerates
// siblings from it).
type chooser struct {
	path  []uint8
	pos   int
	arity []uint8
}

// Choose implements sim.Chooser. Arities and choices are recorded in one byte
// each; a decision point wider than that would alias with a narrower one, so
// it is refused. applyDefaults bounds the fabric so that the engine never
// offers one: reaching the panic means that bound is wrong.
func (c *chooser) Choose(p sim.ChoicePoint, n int) int {
	if n > maxByte {
		panic(fmt.Sprintf("mc: %s decision with %d options; choice vectors hold at most %d", p, n, maxByte))
	}
	c.arity = append(c.arity, uint8(n))
	var v int
	if c.pos < len(c.path) {
		v = int(c.path[c.pos])
	}
	c.pos++
	if v >= n {
		v = 0 // stale prescription (minimizer edits); fall back to default
	}
	return v
}

// runner owns one engine instance and steps choice vectors against it. Each
// of Check's workers owns one for the whole exploration and moves it between
// states with snapshot and restore; the counterexample tools (cex.go) and the
// replay reference build one per path and step it from the initial state.
type runner struct {
	o   *Options
	eng *sim.Engine
	ch  *chooser

	// Injection scripting state: the next script entry to inject and each
	// entry's remaining deferral budget. Entries inject strictly in order;
	// one ChooseInject branch per cycle decides "inject now" vs "defer the
	// rest of the script this cycle", so message IDs are a pure function
	// of injection timing and the state space stays finite.
	scriptIdx int
	budget    []int
}

// newRunner builds a fresh engine at the initial state. rec optionally
// attaches the flight recorder (pure observation; used for counterexample
// emission).
func (o *Options) newRunner(rec *trace.Recorder) (*runner, error) {
	cfg, err := o.run().SimConfig()
	if err != nil {
		return nil, err
	}
	ch := &chooser{}
	cfg.MaxSourceQueue, cfg.Chooser, cfg.Trace = len(o.Script)+1, ch, rec
	cfg.Debug = true // per-cycle safety checks (detector audit included) surface as Step errors
	if rec != nil {
		// Counterexample emission: run the engine-side oracle sweep every
		// cycle so the stream carries oracle-deadlock events. The sweep is
		// pure observation — replayed behavior is unchanged. Otherwise the
		// checker consults the oracle itself.
		cfg.OracleEvery = 1
	}
	eng, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Detector != nil && eng.Capabilities().Snapshot == nil {
		// The stateless mechanisms besides none are the crude timeouts, which
		// decide from the absolute stamps on a message; the canonical state
		// leaves those out, so pruning on it would conflate behaviorally
		// distinct states.
		return nil, fmt.Errorf("mc: mechanism %q decides from message time stamps the canonical state leaves out", o.Mechanism)
	}
	r := &runner{o: o, eng: eng, ch: ch, budget: make([]int, len(o.Script))}
	for i := range r.budget {
		r.budget[i] = o.InjectWindow
	}
	return r, nil
}

// inject runs the driver's injection decision points for this cycle:
// scripted messages enter their source queue strictly in order, each
// deferrable while its budget lasts. A deferral stops the walk (later
// entries cannot overtake), so each cycle contributes at most one
// ChooseInject branch and message IDs stay a pure function of the timing
// choices.
func (r *runner) inject() {
	for r.scriptIdx < len(r.o.Script) {
		in := r.o.Script[r.scriptIdx]
		if r.budget[r.scriptIdx] > 0 {
			if r.ch.Choose(sim.ChooseInject, 2) == 1 {
				r.budget[r.scriptIdx]--
				return
			}
		}
		if m := r.eng.InjectMessage(in.Src, in.Dst, in.Length); m == nil {
			panic("mc: source queue rejected a scripted message (MaxSourceQueue must cover the script)")
		}
		r.scriptIdx++
	}
}

// step advances one cycle under the prescribed choice vector trial (nil =
// all defaults), returning the effective vector actually taken and the
// arity of every decision point encountered. A non-nil error is a safety
// violation (the engine's debug invariants failed).
func (r *runner) step(trial []uint8) (eff, arity []uint8, err error) {
	r.ch.path = trial
	r.ch.pos = 0
	r.ch.arity = r.ch.arity[:0]
	r.inject()
	if err := r.eng.Step(); err != nil {
		return nil, nil, err
	}
	arity = r.ch.arity
	eff = make([]uint8, len(arity))
	for i := range eff {
		if i < len(trial) && trial[i] < arity[i] {
			eff[i] = trial[i]
		}
	}
	return eff, arity, nil
}

// stepPath steps the given per-cycle choice vectors in order. Prefixes
// explored before must step cleanly; an error here means the engine lost
// determinism and the whole check is invalid.
func (r *runner) stepPath(path [][]uint8) error {
	for i, vec := range path {
		if _, _, err := r.step(vec); err != nil {
			return fmt.Errorf("mc: prefix replay diverged at cycle %d: %w", i, err)
		}
	}
	return nil
}

// snapshot appends the runner's exact state to dst: the engine's snapshot,
// then the script position and every deferral budget, four bytes each.
func (r *runner) snapshot(dst []byte) []byte {
	dst = r.eng.Snapshot(dst)
	dst = snap.U32(dst, uint32(r.scriptIdx))
	for _, b := range r.budget {
		dst = snap.U32(dst, uint32(b))
	}
	return dst
}

// restore returns the runner to a state its snapshot method wrote.
func (r *runner) restore(src []byte) error {
	own := 4 * (1 + len(r.budget))
	if len(src) < own {
		return fmt.Errorf("mc: runner snapshot of %d bytes", len(src))
	}
	tail := snap.NewReader(src[len(src)-own:])
	r.scriptIdx = int(tail.U32())
	for i := range r.budget {
		r.budget[i] = int(tail.U32())
	}
	return r.eng.Restore(src[:len(src)-own])
}

// probeOutcome is what a liveness probe found: whether the state was
// deadlocked, how many true marks draining its set produced (counted only
// when the set drained), and the violation, if any. The caller applies it to
// its Result.
type probeOutcome struct {
	deadlocked bool
	trueMarks  int
	violation  *Violation
}

// livenessProbe checks the paper's two invariants from the runner's current
// state. If the global oracle reports a non-empty deadlocked set, the run
// is continued under the deterministic default schedule (all choices 0,
// pending injections proceeding immediately): the set must drain within the
// horizon (liveness), producing at least one — under Strict, exactly one —
// true-classified mark (mark economy). The runner is consumed.
//
// Soundness of "drained implies truly marked": a member of the oracle's
// fixpoint set waits only on virtual channels held by other members, so no
// delivery or false mark outside the set can free one; the set shrinks only
// when a member is marked, and marking a member classifies as true.
func (r *runner) livenessProbe() probeOutcome {
	set := r.eng.Oracle().Deadlocked()
	if len(set) == 0 {
		return probeOutcome{}
	}
	out := probeOutcome{deadlocked: true}
	fail := func(kind, detail string) probeOutcome {
		out.violation = &Violation{Kind: kind, Detail: detail, Cycle: r.eng.Now()}
		return out
	}
	size0 := len(set)
	trueMarks := 0
	doubles := false
	last := r.eng.Stats().TrueMarked
	for t := 0; t < r.o.Horizon; t++ {
		if _, _, err := r.step(nil); err != nil {
			return fail("safety", err.Error())
		}
		cur := r.eng.Stats().TrueMarked
		d := int(cur - last)
		last = cur
		trueMarks += d
		if d >= 2 {
			doubles = true
		}
		if len(r.eng.Oracle().Deadlocked()) == 0 {
			out.trueMarks = trueMarks
			switch {
			case trueMarks < 1:
				return fail("mark-economy", fmt.Sprintf("deadlocked set of %d drained with no true mark", size0))
			case r.o.Strict && (trueMarks != 1 || doubles):
				return fail("mark-economy", fmt.Sprintf("strict: deadlocked set of %d drained with %d true marks (same-cycle double: %v)",
					size0, trueMarks, doubles))
			}
			return out
		}
	}
	return fail("liveness", fmt.Sprintf("oracle set (size %d) still non-empty after %d default cycles (%s)",
		len(r.eng.Oracle().Deadlocked()), r.o.Horizon, r.eng.Detector().Name()))
}
