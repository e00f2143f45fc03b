// Package stats accumulates the measurements the paper reports: the
// percentage of messages detected as possibly deadlocked (the central
// figure of merit of Tables 1–7), whether detections corresponded to true
// deadlocks (the "(*)" annotations), and the usual network metrics
// (latency, throughput) used to locate the saturation point.
package stats

import (
	"fmt"

	"wormnet/internal/snap"
)

// Counters is the set of measurements of one simulation run. The engine
// counts over the whole run and reports the measurement window as the
// difference of two readings (Sub).
type Counters struct {
	// Cycles is the number of cycles counted.
	Cycles int64
	// Nodes is the network size, for per-node rates.
	Nodes int
	// NetLinks is the number of network physical channels, for probe
	// bandwidth-overhead rates.
	NetLinks int

	// Message lifecycle counts.
	Generated      int64 // messages created at sources
	Injected       int64 // messages admitted into the network
	Delivered      int64 // messages fully consumed at their destination
	DeliveredFlits int64

	// Detection counts.
	Marked      int64 // messages marked as possibly deadlocked
	TrueMarked  int64 // marks the oracle confirmed as true deadlocks
	FalseMarked int64 // marks on messages not truly deadlocked

	// Recovery counts.
	Absorbed           int64 // progressive recoveries completed
	Aborted            int64 // regressive recoveries
	Reinjected         int64 // recovered messages re-entered a source queue
	RecoveredDelivered int64 // recoveries that completed at the destination

	// Latency in cycles, over delivered messages (generation to tail
	// consumption, and injection to tail consumption).
	LatencySum    int64
	NetLatencySum int64
	MaxLatency    int64

	// Oracle observations (only populated when the oracle runs
	// periodically).
	OracleRuns       int64
	DeadlockCycles   int64 // oracle runs that found a non-empty deadlock set
	MaxDeadlockSet   int
	DeadlockedMsgSum int64 // sum of deadlock set sizes over runs that found one

	// DTFlagCycleSum sums, over the cycles counted, the number of output
	// channels whose detection-threshold flag (NDM's DT, PDM's IF) was set
	// at the end of the cycle. Divided by Cycles it gives the mean DT-flag
	// occupancy of the network; only populated when the detector's
	// capability report has FlagCounts.
	DTFlagCycleSum int64

	// Probe-based (CMH edge-chasing) detection activity:
	// probe lifecycle counts by outcome, and the control flits probe
	// movement charged to physical links. All zero for router-local
	// mechanisms (NDM, PDM), which send no control messages.
	ProbesEmitted   int64
	ProbesForwarded int64
	ProbesDropped   int64
	ProbesReturned  int64
	ProbeFlits      int64

	// MarksPerCycleHist[k] counts cycles in which exactly k messages were
	// marked, for k in [1, len); index 0 aggregates overflow. It quantifies
	// the paper's claim that in most cases a single message is detected per
	// deadlocked configuration.
	MarksPerCycleHist [9]int64
}

// RecordMarks folds the number of messages marked in one cycle into the
// histogram.
func (c *Counters) RecordMarks(n int) {
	if n <= 0 {
		return
	}
	if n < len(c.MarksPerCycleHist) {
		c.MarksPerCycleHist[n]++
	} else {
		c.MarksPerCycleHist[0]++
	}
}

// PctMarked returns 100 * Marked / Delivered, the paper's "percentage of
// messages detected as possibly deadlocked". It returns 0 when nothing was
// delivered.
func (c *Counters) PctMarked() float64 {
	if c.Delivered == 0 {
		return 0
	}
	return 100 * float64(c.Marked) / float64(c.Delivered)
}

// PctFalseMarked returns 100 * FalseMarked / Delivered.
func (c *Counters) PctFalseMarked() float64 {
	if c.Delivered == 0 {
		return 0
	}
	return 100 * float64(c.FalseMarked) / float64(c.Delivered)
}

// AvgLatency returns the mean generation-to-delivery latency in cycles.
func (c *Counters) AvgLatency() float64 {
	if c.Delivered == 0 {
		return 0
	}
	return float64(c.LatencySum) / float64(c.Delivered)
}

// AvgNetLatency returns the mean injection-to-delivery latency in cycles.
func (c *Counters) AvgNetLatency() float64 {
	if c.Delivered == 0 {
		return 0
	}
	return float64(c.NetLatencySum) / float64(c.Delivered)
}

// Throughput returns accepted traffic in flits/cycle/node.
func (c *Counters) Throughput() float64 {
	if c.Cycles == 0 || c.Nodes == 0 {
		return 0
	}
	return float64(c.DeliveredFlits) / float64(c.Cycles) / float64(c.Nodes)
}

// AvgDTFlags returns the mean number of output channels holding a set
// detection-threshold flag per measured cycle.
func (c *Counters) AvgDTFlags() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.DTFlagCycleSum) / float64(c.Cycles)
}

// ProbeBandwidthPct returns probe control-flit traffic as a percentage of
// aggregate network link capacity: 100 * ProbeFlits / (Cycles * NetLinks).
// Each network link can carry one flit per cycle, so this is the fraction
// of raw link bandwidth the detector's control messages consumed.
func (c *Counters) ProbeBandwidthPct() float64 {
	if c.Cycles == 0 || c.NetLinks == 0 {
		return 0
	}
	return 100 * float64(c.ProbeFlits) / (float64(c.Cycles) * float64(c.NetLinks))
}

// String renders a one-line summary.
func (c *Counters) String() string {
	return fmt.Sprintf(
		"cycles=%d gen=%d inj=%d del=%d thr=%.4f lat=%.1f marked=%d (%.3f%%) true=%d false=%d",
		c.Cycles, c.Generated, c.Injected, c.Delivered, c.Throughput(), c.AvgLatency(),
		c.Marked, c.PctMarked(), c.TrueMarked, c.FalseMarked)
}

// Sub returns what c counted since base, an earlier reading of the same
// counters: every count, and every MarksPerCycleHist bucket, minus base's.
// The network size and the maxima (MaxLatency, MaxDeadlockSet) are c's own:
// a maximum is no difference, so whoever keeps one keeps it over the span
// the difference covers.
func (c *Counters) Sub(base *Counters) Counters {
	d := *c
	bf, df := base.fields(), d.fields()
	for i, v := range df {
		*v -= *bf[i]
	}
	d.MaxLatency = c.MaxLatency
	for i := range d.MarksPerCycleHist {
		d.MarksPerCycleHist[i] -= base.MarksPerCycleHist[i]
	}
	return d
}

// AppendSnapshot appends every accumulated measurement to dst for
// sim.Engine.Snapshot. Nodes and NetLinks are properties of the fabric, set
// when the engine is built, and are not part of it.
func (c *Counters) AppendSnapshot(dst []byte) []byte {
	for _, v := range c.fields() {
		dst = snap.I64(dst, *v)
	}
	dst = snap.I64(dst, int64(c.MaxDeadlockSet))
	return snap.I64s(dst, c.MarksPerCycleHist[:])
}

// RestoreSnapshot reads what AppendSnapshot wrote; decoding errors stay in r.
func (c *Counters) RestoreSnapshot(r *snap.Reader) {
	fields := c.fields()
	var vals [len(fields) + 1]int64
	r.I64s(vals[:])
	for i, v := range fields {
		*v = vals[i]
	}
	c.MaxDeadlockSet = int(vals[len(fields)])
	r.I64s(c.MarksPerCycleHist[:])
}

// fields lists the int64 counters in snapshot order. A counter missing here
// silently resets on Restore; TestCountersSnapshotCoversEveryField fails when
// the struct gains a field this list (or AppendSnapshot) does not cover.
func (c *Counters) fields() [24]*int64 {
	return [...]*int64{
		&c.Cycles,
		&c.Generated, &c.Injected, &c.Delivered, &c.DeliveredFlits,
		&c.Marked, &c.TrueMarked, &c.FalseMarked,
		&c.Absorbed, &c.Aborted, &c.Reinjected, &c.RecoveredDelivered,
		&c.LatencySum, &c.NetLatencySum, &c.MaxLatency,
		&c.OracleRuns, &c.DeadlockCycles, &c.DeadlockedMsgSum,
		&c.DTFlagCycleSum,
		&c.ProbesEmitted, &c.ProbesForwarded, &c.ProbesDropped, &c.ProbesReturned, &c.ProbeFlits,
	}
}
