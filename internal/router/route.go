package router

import (
	"fmt"
	"math/bits"

	"wormnet/internal/rng"
	"wormnet/internal/topology"
)

// RouteMask returns the minimal-direction mask (bit d = topology.Direction d)
// of m's header at router node. The mask is computed on the header's first
// routing attempt at a router and answered from m.Route until the header hops:
// the routing relation R(node, dst) is static, so every retry of a blocked
// header, the oracle's fixpoint rounds and the CMH prober all read the same
// word.
//
// A lookup may write m.Route, so concurrent callers must pass distinct
// messages.
func (f *Fabric) RouteMask(m *Message, node int) uint32 {
	r := &m.Route
	if r.At != int32(node)+1 || r.Dst != m.Dst {
		*r = RouteMemo{Mask: f.Topo.MinimalDirMask(node, int(m.Dst)), At: int32(node) + 1, Dst: m.Dst}
	}
	return r.Mask
}

// CheckRouteMemo recomputes m's cached minimal-direction mask, if any, and
// reports a mismatch. It is the debug-mode audit of the memo.
func (f *Fabric) CheckRouteMemo(m *Message) error {
	r := m.Route
	if r.At == 0 {
		return nil
	}
	if n := int32(f.Topo.Nodes()); r.At < 0 || r.At > n || r.Dst < 0 || r.Dst >= n {
		return fmt.Errorf("router: message %d caches a route for router %d -> %d, outside the %d-node fabric",
			m.ID, r.At-1, r.Dst, n)
	}
	if want := f.Topo.MinimalDirMask(int(r.At-1), int(r.Dst)); r.Mask != want {
		return fmt.Errorf("router: message %d caches minimal-direction mask %#x for router %d -> %d, recomputation gives %#x",
			m.ID, r.Mask, r.At-1, r.Dst, want)
	}
	return nil
}

// Candidates appends to buf the feasible output physical channels of m's
// header at router node, and returns the extended slice. Under true fully
// adaptive minimal routing these are the network links in every minimal
// direction, or the delivery ports once the message has reached its
// destination.
func (f *Fabric) Candidates(m *Message, node int, buf []LinkID) []LinkID {
	if node == int(m.Dst) {
		for p := 0; p < f.Cfg.DelPorts; p++ {
			buf = append(buf, f.DelLink(node, p))
		}
		return buf
	}
	for mask := f.RouteMask(m, node); mask != 0; mask &= mask - 1 {
		buf = append(buf, f.NetLink(node, topology.Direction(bits.TrailingZeros32(mask))))
	}
	return buf
}

// PickVC selects a free virtual channel uniformly at random among the
// explicit VC candidates, returning NilVC when all are busy. The paper does
// not prescribe a selection function for its true fully adaptive router;
// uniform choice over all free VCs of all feasible output channels spreads
// load across virtual channels the way its "all VCs used in the same way"
// assumption expects. Candidates are VC-granular because routing algorithms
// may restrict which virtual channels a message takes. One reservoir-sampling
// draw from r is consumed per free candidate.
func (f *Fabric) PickVC(cands []VCID, r *rng.Source) VCID {
	chosen := NilVC
	count := 0
	for _, vc := range cands {
		if f.VCs[vc].Occupant != NilMsg {
			continue
		}
		count++
		if r.Intn(count) == 0 {
			chosen = vc
		}
	}
	return chosen
}
