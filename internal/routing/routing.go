// Package routing implements the routing algorithms the simulator can run:
//
//   - TrueFullyAdaptive — the paper's algorithm: any virtual channel of any
//     minimal physical channel. Maximum flexibility, but deadlock-prone;
//     it is the algorithm deadlock *recovery* (and hence the paper's
//     detection mechanism) exists to serve.
//   - DimensionOrder — deterministic e-cube routing made deadlock-free on
//     tori with the two virtual-channel classes of Dally & Seitz. The
//     classic deadlock *avoidance* baseline.
//   - DuatoProtocol — Duato's adaptive protocol: minimal fully adaptive
//     routing on the "adaptive" virtual channels with a Dally-Seitz
//     dimension-order escape path, deadlock-free by Duato's theory.
//
// Algorithms produce candidate *virtual channels* for a blocked header;
// the engine picks a free one (or reports a failed attempt). Only
// TrueFullyAdaptive uses all virtual channels of a physical channel
// uniformly, which is the property the paper's detection hardware relies
// on to monitor physical channels instead of individual VCs.
package routing

import (
	"math/bits"

	"wormnet/internal/router"
	"wormnet/internal/topology"
)

// Algorithm computes the virtual channels a message may request next.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Candidates appends the virtual channels the header of m may request
	// at router node, and returns the extended slice. The caller selects
	// among the free ones; if none is free the message is blocked.
	Candidates(f *router.Fabric, m *router.Message, node int, buf []router.VCID) []router.VCID
	// DeadlockFree reports whether the algorithm guarantees the absence of
	// deadlock by construction (avoidance). Deadlock-free algorithms need
	// no detection mechanism.
	DeadlockFree() bool
	// UniformVCs reports whether all virtual channels of each physical
	// channel are used interchangeably — the precondition for the paper's
	// physical-channel detection hardware.
	UniformVCs() bool
	// MinVCs returns the smallest number of virtual channels per physical
	// channel the algorithm requires.
	MinVCs() int
}

// deliveryCandidates lists the node's delivery-port VCs (every algorithm
// delivers the same way).
func deliveryCandidates(f *router.Fabric, node int, buf []router.VCID) []router.VCID {
	for p := 0; p < f.Cfg.DelPorts; p++ {
		buf = append(buf, f.Links[f.DelLink(node, p)].FirstVC)
	}
	return buf
}

// ---------------------------------------------------------------------------
// True fully adaptive

// TrueFullyAdaptive offers every virtual channel of every minimal physical
// channel (the paper's routing algorithm).
type TrueFullyAdaptive struct{}

// Name implements Algorithm.
func (TrueFullyAdaptive) Name() string { return "true-fully-adaptive" }

// DeadlockFree implements Algorithm: unrestricted adaptivity can deadlock.
func (TrueFullyAdaptive) DeadlockFree() bool { return false }

// UniformVCs implements Algorithm.
func (TrueFullyAdaptive) UniformVCs() bool { return true }

// MinVCs implements Algorithm.
func (TrueFullyAdaptive) MinVCs() int { return 1 }

// Candidates implements Algorithm.
func (TrueFullyAdaptive) Candidates(f *router.Fabric, m *router.Message, node int, buf []router.VCID) []router.VCID {
	if node == int(m.Dst) {
		return deliveryCandidates(f, node, buf)
	}
	return minimalVCs(f, m, node, 0, buf)
}

// minimalVCs appends virtual channels firstVC..V-1 of every minimal physical
// channel of m's header at node. The minimal directions come from the
// header's route memo.
func minimalVCs(f *router.Fabric, m *router.Message, node int, firstVC router.VCID, buf []router.VCID) []router.VCID {
	for mask := f.RouteMask(m, node); mask != 0; mask &= mask - 1 {
		link := &f.Links[f.NetLink(node, topology.Direction(bits.TrailingZeros32(mask)))]
		for v := firstVC; v < router.VCID(link.NumVC); v++ {
			buf = append(buf, link.FirstVC+v)
		}
	}
	return buf
}

// ---------------------------------------------------------------------------
// Dimension-order (e-cube) with Dally-Seitz virtual channel classes

// dorHop returns the dimension-order next hop from node toward dst: the
// direction in the lowest unresolved dimension and the Dally-Seitz virtual
// channel class (0 before the wraparound crossing, 1 after), which breaks
// the ring cycle in each dimension.
func dorHop(t *topology.Torus, node, dst int) (dir topology.Direction, vcClass int, ok bool) {
	for dim := 0; dim < t.N(); dim++ {
		cur, want := t.CoordAt(node, dim), t.CoordAt(dst, dim)
		if cur == want {
			continue
		}
		d := want - cur
		if d < 0 {
			d += t.K()
		}
		// Travel "+" when the forward distance is at most half way (ties
		// resolve deterministically to "+"), else "-".
		if 2*d <= t.K() {
			dir = topology.Direction(dim * 2)
			// Going "+": the path wraps iff cur + d >= k, i.e. cur > want.
			if cur > want {
				vcClass = 0
			} else {
				vcClass = 1
			}
		} else {
			dir = topology.Direction(dim*2 + 1)
			// Going "-": wraps iff cur < want.
			if cur < want {
				vcClass = 0
			} else {
				vcClass = 1
			}
		}
		return dir, vcClass, true
	}
	return 0, 0, false
}

// DimensionOrder is deterministic e-cube routing with two Dally-Seitz
// virtual channel classes per physical channel; VCs beyond the first two
// are unused. Deadlock-free on any k-ary n-cube.
type DimensionOrder struct{}

// Name implements Algorithm.
func (DimensionOrder) Name() string { return "dimension-order" }

// DeadlockFree implements Algorithm.
func (DimensionOrder) DeadlockFree() bool { return true }

// UniformVCs implements Algorithm.
func (DimensionOrder) UniformVCs() bool { return false }

// MinVCs implements Algorithm.
func (DimensionOrder) MinVCs() int { return 2 }

// Candidates implements Algorithm.
func (DimensionOrder) Candidates(f *router.Fabric, m *router.Message, node int, buf []router.VCID) []router.VCID {
	dst := int(m.Dst)
	if node == dst {
		return deliveryCandidates(f, node, buf)
	}
	dir, class, ok := dorHop(f.Topo, node, dst)
	if !ok {
		return buf
	}
	return append(buf, f.Links[f.NetLink(node, dir)].FirstVC+router.VCID(class))
}

// ---------------------------------------------------------------------------
// Duato's protocol

// DuatoProtocol routes minimally and fully adaptively on virtual channels
// 2..V-1 of every profitable physical channel, with virtual channels 0 and
// 1 reserved as a dimension-order Dally-Seitz escape path. By Duato's
// theory the escape sub-network makes the whole algorithm deadlock-free
// while retaining most of the adaptivity. Requires at least 3 VCs.
type DuatoProtocol struct{}

// Name implements Algorithm.
func (DuatoProtocol) Name() string { return "duato-protocol" }

// DeadlockFree implements Algorithm.
func (DuatoProtocol) DeadlockFree() bool { return true }

// UniformVCs implements Algorithm.
func (DuatoProtocol) UniformVCs() bool { return false }

// MinVCs implements Algorithm.
func (DuatoProtocol) MinVCs() int { return 3 }

// Candidates implements Algorithm.
func (DuatoProtocol) Candidates(f *router.Fabric, m *router.Message, node int, buf []router.VCID) []router.VCID {
	dst := int(m.Dst)
	if node == dst {
		return deliveryCandidates(f, node, buf)
	}
	// Adaptive class: VCs 2..V-1 of every minimal physical channel.
	buf = minimalVCs(f, m, node, 2, buf)
	// Escape: the dimension-order hop on its Dally-Seitz class.
	if dir, class, ok := dorHop(f.Topo, node, dst); ok {
		buf = append(buf, f.Links[f.NetLink(node, dir)].FirstVC+router.VCID(class))
	}
	return buf
}

// ByName returns the algorithm with the given name.
func ByName(name string) (Algorithm, bool) {
	switch name {
	case "adaptive", "true-fully-adaptive", "tfa":
		return TrueFullyAdaptive{}, true
	case "dor", "dimension-order", "ecube":
		return DimensionOrder{}, true
	case "duato", "duato-protocol":
		return DuatoProtocol{}, true
	default:
		return nil, false
	}
}
