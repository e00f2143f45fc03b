// Open-episode storage. A deadlock storm keeps one episode open for the
// whole run and adds a few marks to it every cycle, so the marks, their
// blocking chains and the victims live in fixed-size chunks of pointer-free
// records: appending never copies a record, allocates only when a chunk
// fills, and the collector never scans a chunk. finalize materialises the
// exported Marks and Victims once, at exact size, when the episode closes.
package forensics

// Chunk sizes, in records. A mark record is 56 bytes, a WaitEdge 16 and a
// Victim 64, so each chunk is 56-64 KiB.
const (
	markChunk   = 1024
	edgeChunk   = 4096
	victimChunk = 1024
)

// chunks is an append-only sequence of records in chunks of a fixed size.
// A run of records never straddles two chunks, so a record's place is its
// chunk index and offset, and a run handed out is never moved.
type chunks[T any] struct {
	dir  [][]T // len is a chunk's fill, cap its size
	last int   // the chunk being filled
	size int
}

// run returns n contiguous free records of one chunk (n <= size) with the
// chunk's index and the run's offset, moving to the next chunk, allocated
// if need be, when the current one has fewer than n free. The run's
// capacity is capped, so appending to it can never reach a neighbour.
func (s *chunks[T]) run(n int) (chunk, off int, r []T) {
	if len(s.dir) == 0 || cap(s.dir[s.last])-len(s.dir[s.last]) < n {
		if len(s.dir) > 0 {
			s.last++
		}
		if s.last == len(s.dir) {
			s.dir = append(s.dir, make([]T, 0, s.size))
		}
	}
	c := s.dir[s.last]
	off = len(c)
	s.dir[s.last] = c[:off+n]
	return s.last, off, c[off : off+n : off+n]
}

// push appends one record.
func (s *chunks[T]) push(v T) {
	_, _, r := s.run(1)
	r[0] = v
}

// len counts the records of a sequence filled only by push, which leaves no
// gap at the end of a chunk.
func (s *chunks[T]) len() int {
	if len(s.dir) == 0 {
		return 0
	}
	return s.last*s.size + len(s.dir[s.last])
}

// at returns record i of a sequence filled only by push.
func (s *chunks[T]) at(i int) *T {
	return &s.dir[i/s.size][i%s.size]
}

// reset empties the sequence and keeps its chunks for reuse. Only a
// sequence nothing else refers to may be reset.
func (s *chunks[T]) reset() {
	for i := range s.dir {
		s.dir[i] = s.dir[i][:0]
	}
	s.last = 0
}

// Rule and chain-end names. A mark record holds an index into these.
var (
	ruleNames = [...]string{
		ruleTimeout:     "timeout",
		ruleG1:          "g1-first-attempt",
		ruleG2:          "g2-promotion",
		ruleGUnknown:    "g-unknown",
		ruleDTThreshold: "dt-threshold",
		ruleProbeReturn: "probe-return",
	}
	chainEnds = [...]string{
		endNone:      "",
		endAdvancing: "advancing",
		endNoHolder:  "no-holder",
		endCycle:     "cycle",
		endTruncated: "truncated",
	}
)

const (
	ruleTimeout uint8 = iota
	ruleG1
	ruleG2
	ruleGUnknown
	ruleDTThreshold
	ruleProbeReturn
)

const (
	endNone uint8 = iota
	endAdvancing
	endNoHolder
	endCycle
	endTruncated
)

// markRec is a Mark without pointers: the rule and chain end are indexes
// into the name tables, and the chain is a run of the correlator's edge
// chunks.
type markRec struct {
	cycle, sinceBlocked, oracleLatency, hops int64
	msg, node                                int32
	chainChunk                               int32
	chainOff                                 uint16
	chainLen                                 uint8
	rule, chainEnd                           uint8
	isTrue                                   bool
}

// mark materialises the record; the chain is a capacity-capped sub-slice
// of its edge chunk, not a copy.
func (r *markRec) mark(edges *chunks[WaitEdge]) Mark {
	m := Mark{
		Cycle: r.cycle, Msg: r.msg, Node: r.node, True: r.isTrue,
		Rule: ruleNames[r.rule], Hops: r.hops,
		SinceBlocked: r.sinceBlocked, OracleLatency: r.oracleLatency,
		ChainEnd: chainEnds[r.chainEnd],
	}
	if n := int(r.chainLen); n > 0 {
		off := int(r.chainOff)
		m.Chain = edges.dir[r.chainChunk][off : off+n : off+n]
	}
	return m
}
