package sim

import "wormnet/internal/router"

// ChoicePoint identifies one class of nondeterministic decision the engine
// (or a scripted driver) resolves while stepping a cycle. The model checker
// (internal/mc) enumerates every resolution of every choice point to explore
// all reachable interleavings; a production run resolves the same points with
// the seeded RNG and round-robin pointers instead.
type ChoicePoint uint8

// Choice points, in the order they can occur within one cycle.
const (
	// ChooseInject decides whether a scripted message enters its source
	// queue this cycle (0) or is deferred (1). The engine itself never
	// issues this point; drivers that script workloads (internal/mc) do,
	// before calling Step.
	ChooseInject ChoicePoint = iota
	// ChooseArb picks the winner among a target link's eligible feeders
	// during flit transfer, replacing the round-robin pointer. Options are
	// indices into the eligible-feeder list in ascending source-VC order.
	ChooseArb
	// ChooseVC picks the virtual channel a routing header advances into,
	// replacing the SelectPolicy + RNG draw. Options are indices into the
	// free-candidate list in routing-candidate order.
	ChooseVC
)

// String names the choice point for diagnostics and counterexample listings.
func (p ChoicePoint) String() string {
	switch p {
	case ChooseInject:
		return "inject"
	case ChooseArb:
		return "arb"
	case ChooseVC:
		return "vc"
	}
	return "?"
}

// Chooser resolves the engine's nondeterministic decision points externally.
// Choose is called with n >= 2 options and must return an index in [0, n);
// decisions with a single option are taken directly and never reach the
// Chooser, so implementations observe exactly the branching structure of the
// run. Calls arrive in a deterministic order that is a pure function of the
// simulation state and the choices already made, which is what makes
// record/replay exploration sound.
//
// A Chooser replaces only the decision points listed above; generation randomness
// is untouched, so exhaustive drivers script their workload via
// InjectMessage with Load = 0.
//
// Under a Chooser the engine also stops advancing the per-link round-robin
// pointers: arbitration fairness is subsumed by the chooser, and pinning the
// pointers at their initial value keeps them out of the model checker's
// state encoding (the chooser explores a superset of every pointer setting's
// behavior).
type Chooser interface {
	Choose(p ChoicePoint, n int) int
}

// chooseVC is route's chooser-mode replacement for Fabric.PickVC: the
// free candidates are gathered in candidate order and the chooser picks one.
// Returns NilVC when none are free.
func (e *Engine) chooseVC(cands []router.VCID) router.VCID {
	fab := e.fab
	e.freeCands = e.freeCands[:0]
	for _, vc := range cands {
		if fab.VCs[vc].Occupant == router.NilMsg {
			e.freeCands = append(e.freeCands, vc)
		}
	}
	switch len(e.freeCands) {
	case 0:
		return router.NilVC
	case 1:
		return e.freeCands[0]
	}
	return e.freeCands[e.chooser.Choose(ChooseVC, len(e.freeCands))]
}

// arbitrateChoose is arbitrate's chooser-mode body: the eligible feeders
// (credit at the target buffer, input channel not yet used this cycle) are
// collected in req's — ascending source-VC — order and the chooser picks the
// winner. The round-robin pointer is intentionally not advanced — see Chooser.
func (e *Engine) arbitrateChoose(tl router.LinkID, req []router.VCID, buf int32) {
	vcs := e.fab.VCs
	e.arbElig = e.arbElig[:0]
	for _, u := range req {
		uv := &vcs[u]
		if vcs[uv.Next].Flits >= buf || e.inputUsed[uv.Link] {
			continue
		}
		e.arbElig = append(e.arbElig, u)
	}
	if len(e.arbElig) > 0 {
		u := e.arbElig[0]
		if len(e.arbElig) > 1 {
			u = e.arbElig[e.chooser.Choose(ChooseArb, len(e.arbElig))]
		}
		e.grant(tl, u)
	}
}
