// Package viz renders human-readable snapshots of the simulator state:
// per-channel occupancy summaries and, for 2-D networks, an ASCII
// utilization heatmap. It is a debugging and teaching aid; nothing in the
// measurement path depends on it.
package viz

import (
	"fmt"
	"strings"

	"wormnet/internal/router"
)

// ChannelSummary is an aggregate view of the fabric's occupancy.
type ChannelSummary struct {
	NetLinks      int
	BusyNetLinks  int // network links with >= 1 busy VC
	FullNetLinks  int // network links with every VC busy
	BusyVCs       int
	BufferedFlits int64
	LiveMessages  int
	BlockedHeads  int
}

// Summarize computes a ChannelSummary for the fabric.
func Summarize(f *router.Fabric) ChannelSummary {
	var s ChannelSummary
	s.NetLinks = f.NumNetLinks()
	for l := 0; l < f.NumNetLinks(); l++ {
		busy := f.BusyVCs(router.LinkID(l))
		if busy > 0 {
			s.BusyNetLinks++
		}
		if f.AllVCsBusy(router.LinkID(l)) {
			s.FullNetLinks++
		}
	}
	for i := range f.VCs {
		if f.VCs[i].Occupant != router.NilMsg {
			s.BusyVCs++
			s.BufferedFlits += int64(f.VCs[i].Flits)
			if f.HeaderBlocked(router.VCID(i)) {
				s.BlockedHeads++
			}
		}
	}
	f.LiveMessages(func(*router.Message) { s.LiveMessages++ })
	return s
}

// String renders the summary on one line.
func (s ChannelSummary) String() string {
	return fmt.Sprintf("net links: %d/%d busy (%d full), %d busy VCs, %d flits buffered, %d live messages, %d blocked headers",
		s.BusyNetLinks, s.NetLinks, s.FullNetLinks, s.BusyVCs, s.BufferedFlits, s.LiveMessages, s.BlockedHeads)
}

// Heatmap renders, for a 2-dimensional torus, a grid of per-node busy
// output-VC counts as digits (values above 9 print as '+'). For other
// dimensionalities it returns an explanatory line instead.
func Heatmap(f *router.Fabric) string {
	t := f.Topo
	if t.N() != 2 {
		return fmt.Sprintf("(heatmap available only for 2-D tori; this is a %s)", t)
	}
	k := t.K()
	var sb strings.Builder
	coord := make([]int, 2)
	for y := k - 1; y >= 0; y-- {
		for x := 0; x < k; x++ {
			coord[0], coord[1] = x, y
			busy := f.BusyNetOutputVCs(t.ID(coord))
			switch {
			case busy == 0:
				sb.WriteByte('.')
			case busy <= 9:
				sb.WriteByte(byte('0' + busy))
			default:
				sb.WriteByte('+')
			}
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
