package sim

import (
	"math/bits"

	"wormnet/internal/metrics"
	"wormnet/internal/router"
)

// ProbeMetrics implements metrics.Prober: it fills the instantaneous gauge
// fields of one time-series sample from the engine's current state. The
// collector calls it on the engine goroutine at sampling-window boundaries
// only, so the walks below (source queues, pending headers, occupied VCs,
// busy links) are amortized over the window and allocation-free — every
// structure visited is a pre-sized engine or fabric buffer.
func (e *Engine) ProbeMetrics(s *metrics.Sample) {
	// Queued walks only the nonempty-queue bitmap (the kernel's admit
	// active set), which also directly yields the NonemptyQueues gauge.
	queued, nonempty := 0, 0
	for w, word := range e.neBits {
		nonempty += bits.OnesCount64(word)
		for word != 0 {
			node := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			queued += e.queues[node].Len()
		}
	}
	s.Queued = int32(queued)
	s.NonemptyQueues = int32(nonempty)
	// Links that carried a flit this cycle, and worms the kernel is moving:
	// together with BusyVCs these are the active-set sizes that bound the
	// kernel's per-cycle cost.
	s.ActiveLinks = int32(len(e.txLinks))
	s.WormsInFlight = int32(e.inFlight)

	blocked := 0
	for _, id := range e.pending {
		m := e.fab.Msg(id)
		if m.Phase == router.PhaseNetwork && m.Attempts > 0 {
			blocked++
		}
	}
	s.Blocked = int32(blocked)

	fab := e.fab
	s.BusyLinks = int32(fab.NumBusyLinks())
	var netVCs, injVCs, delVCs int32
	for it := fab.OccupiedWords(); ; {
		w, word, ok := it.Next()
		if !ok {
			break
		}
		for ; word != 0; word &= word - 1 {
			link := &fab.Links[fab.LinkOfVC(router.VCID(w<<6+bits.TrailingZeros64(word)))]
			switch link.Kind {
			case router.NetworkLink:
				netVCs++
				if d := link.Dir.Dim(); d < len(s.DimVCs) {
					s.DimVCs[d]++
				}
			case router.InjectionLink:
				injVCs++
			default:
				delVCs++
			}
		}
	}
	for it := fab.BusyLinkWords(); ; {
		w, word, ok := it.Next()
		if !ok {
			break
		}
		for ; word != 0; word &= word - 1 {
			link := &fab.Links[w<<6+bits.TrailingZeros64(word)]
			if link.Kind == router.NetworkLink {
				if d := link.Dir.Dim(); d < len(s.DimLinks) {
					s.DimLinks[d]++
				}
			}
		}
	}
	s.BusyVCs = netVCs + injVCs + delVCs
	e.mc.SetClassVCs(netVCs, injVCs, delVCs)

	if e.caps.FlagCounts != nil {
		i, dt, g := e.caps.FlagCounts()
		s.IFlags, s.DTFlags, s.GFlags = int32(i), int32(dt), int32(g)
	}
	s.RecoveryDepth = int32(e.rec.Active())
	s.OracleSet = int32(e.oracleSize)
	s.ProbesInFlight = int32(e.probesInFlight)
}
