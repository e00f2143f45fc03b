package router

import (
	"wormnet/internal/rng"
	"wormnet/internal/topology"
)

// Candidates appends to buf the feasible output physical channels for a
// message headed to dst whose header sits at router node, and returns the
// extended slice. Under true fully adaptive minimal routing these are the
// network links in every minimal direction, or the delivery ports once the
// message has reached its destination.
func (f *Fabric) Candidates(node, dst int, buf []LinkID) []LinkID {
	if node == dst {
		for p := 0; p < f.Cfg.DelPorts; p++ {
			buf = append(buf, f.DelLink(node, p))
		}
		return buf
	}
	var dirs [16]topology.Direction
	for _, d := range f.Topo.MinimalDirections(node, dst, dirs[:0]) {
		buf = append(buf, f.NetLink(node, d))
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
