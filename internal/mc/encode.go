package mc

import (
	"hash/maphash"

	"wormnet/internal/snap"
)

// encode appends the runner's canonical state to buf: the engine's
// (sim.Engine.AppendCanonical, which says what it leaves out and why), then
// the script position and the deferral budgets of the entries not yet
// injected. Two runners with equal encodings behave identically under
// identical future choice sequences — that is the pruning contract.
func (r *runner) encode(buf []byte) []byte {
	buf = r.eng.AppendCanonical(buf)
	buf = snap.Int(buf, int64(r.scriptIdx))
	for _, b := range r.budget[r.scriptIdx:] {
		buf = snap.Int(buf, int64(b))
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
