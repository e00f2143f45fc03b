package mc

import (
	"hash/maphash"

	"wormnet/internal/router"
)

// encode appends the runner's canonical state to buf. Two runners with
// equal encodings behave identically under identical future choice
// sequences — that is the pruning contract; every behavioral component is
// included and every excluded component is either derived, per-cycle
// scratch that is rewritten before its next read, telemetry, or an
// absolute-time stamp whose behavioral content is captured age-clamped by
// the detector encodings (see detect.Capabilities.AppendState and DESIGN.md
// §13).
//
// Sections, in order: driver (script position and remaining deferral
// budgets), engine scheduling order (sim.Engine.AppendSchedState), fabric
// virtual-channel occupancy, live message transport state, and the
// detector's own encoding.
func (r *runner) encode(buf []byte) []byte {
	buf = append(buf, byte(r.scriptIdx))
	for _, b := range r.budget[r.scriptIdx:] {
		buf = append(buf, byte(b))
	}
	buf = r.eng.AppendSchedState(buf)
	fab := r.eng.Fabric()
	for i := range fab.VCs {
		vc := &fab.VCs[i]
		var bits byte
		if vc.HasHeader {
			bits |= 1
		}
		if vc.HasTail {
			bits |= 2
		}
		buf = append(buf,
			byte(vc.Occupant), byte(vc.Occupant>>8),
			byte(vc.Flits),
			byte(vc.Next), byte(vc.Next>>8),
			bits)
	}
	fab.LiveMessages(func(m *router.Message) {
		// Attempts is read only as ==0 (never blocked here) and ==1
		// (first failure), so clamping at 2 is exact; Marked gates
		// re-marking. Absolute stamps (GenTime, BlockedSince, ...) are
		// deliberately absent — their behavioral content is age-clamped
		// inside the detector encodings that consume them.
		att := m.Attempts
		if att > 2 {
			att = 2
		}
		var bits byte
		if m.Marked {
			bits |= 1
		}
		buf = append(buf,
			byte(m.ID),
			byte(m.Src), byte(m.Dst), byte(m.Length),
			byte(m.Phase),
			byte(m.HeadVC), byte(m.HeadVC>>8),
			byte(m.TailVC), byte(m.TailVC>>8),
			byte(m.Injected), byte(m.Consumed),
			byte(m.InjLink), byte(m.InjLink>>8),
			byte(att), bits)
	})
	if enc := r.eng.Capabilities().AppendState; enc != nil {
		buf = enc(buf, r.eng.Now())
	}
	return buf
}

// key is a 128-bit state fingerprint: two hash/maphash sums of the canonical
// encoding under two independent seeds. A maphash seed is random and made
// once per process, so a key means nothing outside the process that computed
// it: keys are compared, never printed or persisted. For a random seed two
// distinct inputs share a sum with probability about 2^-64, and the two seeds
// are drawn independently, so among n states some two collide with
// probability about n^2/2^129 — ~2^-87 at the state-set sizes this package
// bounds (millions) — far below any chance of silently conflating two
// distinct states.
type key [2]uint64

// hashSeeds are key's two seeds, fixed for the life of the process.
var hashSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

func hashState(b []byte) key {
	return key{maphash.Bytes(hashSeeds[0], b), maphash.Bytes(hashSeeds[1], b)}
}
