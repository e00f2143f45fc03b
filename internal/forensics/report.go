// Incident-record types and their JSONL encoding. One Episode per line, in
// exactly encoding/json's form of the fixed struct layouts, so a report is a
// deterministic function of the episode values — which are themselves a
// deterministic function of the trace byte stream (see forensics.go).
package forensics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// Episode is one reconstructed deadlock incident: the temporal span from the
// first oracle sighting (or, for a pure false positive, the first mark) to
// the cycle the last involved message drained or unblocked.
type Episode struct {
	// ID numbers episodes 1.. in open order.
	ID int `json:"id"`
	// Verdict is "true-deadlock" when the oracle sighted at least one
	// member, "false-positive" when the episode consists only of marks the
	// oracle refuted.
	Verdict string `json:"verdict"`
	// Unresolved marks an episode still open when the trace ended (its
	// CloseCycle and MTTR are -1). The committed model-checker
	// counterexample — a true deadlock with detection disabled — decodes as
	// exactly this.
	Unresolved bool `json:"unresolved,omitempty"`
	// OpenCycle is the first oracle sighting (or first mark); CloseCycle is
	// the cycle the last member/victim left the network (-1 if unresolved).
	OpenCycle  int64 `json:"openCycle"`
	CloseCycle int64 `json:"closeCycle"`
	// Mechanism is the detection mechanism inferred from the event stream
	// (or forced by Options.Mechanism): ndm, pdm, cmh, timeout, none.
	Mechanism string `json:"mechanism"`
	// PeakOracleSet is the largest deadlocked-set size the oracle reported
	// during the episode.
	PeakOracleSet int `json:"peakOracleSet"`
	// MTTDCycles is first-mark − OpenCycle for oracle-confirmed episodes
	// (-1 when nothing was marked or the verdict is false-positive). It is
	// only as sharp as the oracle cadence: run with -oracle-every 1 for
	// cycle-accurate values.
	MTTDCycles int64 `json:"mttdCycles"`
	// MTTRCycles is CloseCycle − first-mark (-1 when unresolved or
	// markless).
	MTTRCycles int64 `json:"mttrCycles"`
	// Members are the oracle-sighted messages, in sighting order.
	Members []Member `json:"members,omitempty"`
	// Formation is the channel-wait-for cycle extracted from the members'
	// sighting-time snapshots: each edge says Msg, blocked at router Node,
	// waits on held channel Link occupied by member Next.
	Formation []WaitEdge `json:"formation,omitempty"`
	// Marks are the detector verdicts attributed to this episode, in mark
	// order.
	Marks []Mark `json:"marks,omitempty"`
	// Victims are the messages recovery removed, in recover-start order.
	Victims []Victim `json:"victims,omitempty"`
	// AbsorbedFlitsEst estimates the flits drained by recovery as the sum
	// of the victims' message lengths (the trace's recovery VC releases are
	// anonymous, so the exact in-network flit count is not reconstructible).
	AbsorbedFlitsEst int64 `json:"absorbedFlitsEst"`
}

// Member is one oracle-sighted message with its blocking state snapshotted
// at sighting time.
type Member struct {
	Msg int32 `json:"msg"`
	// Sighted is the cycle the oracle first reported the message deadlocked.
	Sighted int64 `json:"sighted"`
	// Node and InLink are where the header was blocked (router and input
	// channel of its last failed routing attempt; -1 if it never failed).
	Node   int32 `json:"node"`
	InLink int32 `json:"inLink"`
	// BlockedSince is the cycle of the first failed attempt of the current
	// blocking run (-1 unknown).
	BlockedSince int64 `json:"blockedSince"`
	// Holds are the physical channels the worm occupied at sighting time,
	// in allocation order.
	Holds []int32 `json:"holds,omitempty"`
}

// WaitEdge is one channel dependency: Msg, blocked at router Node, waits for
// channel Link (an output of Node) held by Next.
type WaitEdge struct {
	Msg  int32 `json:"msg"`
	Node int32 `json:"node"`
	Link int32 `json:"link"`
	Next int32 `json:"next"`
}

// Mark is one detector verdict with its causal attribution.
type Mark struct {
	Cycle int64 `json:"cycle"`
	Msg   int32 `json:"msg"`
	Node  int32 `json:"node"`
	// True is the oracle's verdict on the mark.
	True bool `json:"true"`
	// Rule names what fired, in the paper's terms: "g1-first-attempt" or
	// "g2-promotion" (the NDM rule arming the input's G flag when its DT
	// expired), "dt-threshold" (PDM), "probe-return" (CMH; Hops is the
	// probe's cycle length), "timeout" for the crude heuristics.
	Rule string `json:"rule"`
	Hops int64  `json:"hops,omitempty"`
	// SinceBlocked is mark − first failed attempt; OracleLatency is mark −
	// oracle sighting (-1 for false positives, which were never sighted).
	SinceBlocked  int64 `json:"sinceBlocked"`
	OracleLatency int64 `json:"oracleLatency"`
	// Chain, for false positives, is the blocking chain walked from the
	// marked message over the channel-occupancy graph at mark time: the
	// dependency path that kept the message inactive long enough to cross
	// the NDM/PDM threshold without a real cycle. ChainEnd says how it
	// terminated: "advancing" (reached a worm that was still moving — the
	// usual explanation for a spurious threshold crossing), "no-holder",
	// "cycle" (the over-approximate graph closed on itself), "truncated".
	Chain    []WaitEdge `json:"chain,omitempty"`
	ChainEnd string     `json:"chainEnd,omitempty"`
}

// Victim is one message removed by recovery.
type Victim struct {
	Msg int32 `json:"msg"`
	// Start and End are the recover-start and recover-end cycles (End -1
	// while draining at trace end). Node is where it re-entered (-1 until
	// End). DrainCycles is End − Start.
	Start       int64 `json:"start"`
	End         int64 `json:"end"`
	Node        int32 `json:"node"`
	DrainCycles int64 `json:"drainCycles"`
	// Delivered reports that the absorbing node was the destination.
	Delivered bool `json:"delivered"`
	// Style is the recovery style (0 progressive, 1 regressive).
	Style int64 `json:"style"`
	// LengthFlits is the message length (the absorbed-flit estimate).
	LengthFlits int32 `json:"lengthFlits"`
}

// FirstMarkCycle returns the cycle of the episode's first mark, or -1.
func (e *Episode) FirstMarkCycle() int64 {
	if len(e.Marks) == 0 {
		return -1
	}
	return e.Marks[0].Cycle
}

// WriteJSONL writes episodes one JSON object per line, byte for byte what
// json.Marshal of each episode followed by a newline would write. It streams:
// each record of a line (the episode's scalars, one member, edge, mark or
// victim) is appended straight to the buffered writer's free space and
// committed, so a line of any length is never held whole.
func WriteJSONL(w io.Writer, episodes []*Episode) error {
	e := reportWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	for _, ep := range episodes {
		if e.episode(ep); e.err != nil {
			return e.err
		}
	}
	return e.bw.Flush()
}

// recordRoom is the free space reportWriter.buf keeps available: more than
// a mark with a full blocking chain takes, so a record normally lands in
// the writer's buffer without being copied.
const recordRoom = 2048

// reportWriter appends an episode's JSON to a bufio.Writer a record at a
// time. A write error is kept and ends the output.
type reportWriter struct {
	bw  *bufio.Writer
	err error
}

// buf returns the writer's free space, flushed first if short of recordRoom.
func (e *reportWriter) buf() []byte {
	if e.bw.Available() < recordRoom && e.err == nil {
		e.err = e.bw.Flush()
	}
	return e.bw.AvailableBuffer()
}

// commit writes a record appended to buf().
func (e *reportWriter) commit(b []byte) {
	if e.err == nil {
		_, e.err = e.bw.Write(b)
	}
}

func (e *reportWriter) episode(ep *Episode) {
	b := appendInt(e.buf(), `{"id":`, int64(ep.ID))
	b = appendString(append(b, `,"verdict":`...), ep.Verdict)
	if ep.Unresolved {
		b = append(b, `,"unresolved":true`...)
	}
	b = appendInt(b, `,"openCycle":`, ep.OpenCycle)
	b = appendInt(b, `,"closeCycle":`, ep.CloseCycle)
	b = appendString(append(b, `,"mechanism":`...), ep.Mechanism)
	b = appendInt(b, `,"peakOracleSet":`, int64(ep.PeakOracleSet))
	b = appendInt(b, `,"mttdCycles":`, ep.MTTDCycles)
	b = appendInt(b, `,"mttrCycles":`, ep.MTTRCycles)
	e.commit(b)
	writeList(e, `,"members":[`, ep.Members, appendMember)
	writeList(e, `,"formation":[`, ep.Formation, appendEdge)
	writeList(e, `,"marks":[`, ep.Marks, appendMark)
	writeList(e, `,"victims":[`, ep.Victims, appendVictim)
	b = appendInt(e.buf(), `,"absorbedFlitsEst":`, ep.AbsorbedFlitsEst)
	e.commit(append(b, "}\n"...))
}

// writeList writes an omitempty array field one element per record,
// stopping at a write error.
func writeList[T any](e *reportWriter, key string, list []T, appendOne func([]byte, *T) []byte) {
	for i := 0; i < len(list) && e.err == nil; i++ {
		b := e.buf()
		if i == 0 {
			b = append(b, key...)
		} else {
			b = append(b, ',')
		}
		e.commit(appendOne(b, &list[i]))
	}
	if len(list) > 0 {
		e.commit(append(e.buf(), ']'))
	}
}

func appendMember(b []byte, m *Member) []byte {
	b = appendInt(b, `{"msg":`, int64(m.Msg))
	b = appendInt(b, `,"sighted":`, m.Sighted)
	b = appendInt(b, `,"node":`, int64(m.Node))
	b = appendInt(b, `,"inLink":`, int64(m.InLink))
	b = appendInt(b, `,"blockedSince":`, m.BlockedSince)
	for i, l := range m.Holds {
		if i == 0 {
			b = append(b, `,"holds":[`...)
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	if len(m.Holds) > 0 {
		b = append(b, ']')
	}
	return append(b, '}')
}

func appendEdge(b []byte, w *WaitEdge) []byte {
	b = appendInt(b, `{"msg":`, int64(w.Msg))
	b = appendInt(b, `,"node":`, int64(w.Node))
	b = appendInt(b, `,"link":`, int64(w.Link))
	b = appendInt(b, `,"next":`, int64(w.Next))
	return append(b, '}')
}

func appendMark(b []byte, m *Mark) []byte {
	b = appendInt(b, `{"cycle":`, m.Cycle)
	b = appendInt(b, `,"msg":`, int64(m.Msg))
	b = appendInt(b, `,"node":`, int64(m.Node))
	b = strconv.AppendBool(append(b, `,"true":`...), m.True)
	b = appendString(append(b, `,"rule":`...), m.Rule)
	if m.Hops != 0 {
		b = appendInt(b, `,"hops":`, m.Hops)
	}
	b = appendInt(b, `,"sinceBlocked":`, m.SinceBlocked)
	b = appendInt(b, `,"oracleLatency":`, m.OracleLatency)
	for i := range m.Chain {
		if i == 0 {
			b = append(b, `,"chain":[`...)
		} else {
			b = append(b, ',')
		}
		b = appendEdge(b, &m.Chain[i])
	}
	if len(m.Chain) > 0 {
		b = append(b, ']')
	}
	if m.ChainEnd != "" {
		b = appendString(append(b, `,"chainEnd":`...), m.ChainEnd)
	}
	return append(b, '}')
}

func appendVictim(b []byte, v *Victim) []byte {
	b = appendInt(b, `{"msg":`, int64(v.Msg))
	b = appendInt(b, `,"start":`, v.Start)
	b = appendInt(b, `,"end":`, v.End)
	b = appendInt(b, `,"node":`, int64(v.Node))
	b = appendInt(b, `,"drainCycles":`, v.DrainCycles)
	b = strconv.AppendBool(append(b, `,"delivered":`...), v.Delivered)
	b = appendInt(b, `,"style":`, v.Style)
	b = appendInt(b, `,"lengthFlits":`, int64(v.LengthFlits))
	return append(b, '}')
}

// appendInt appends a key (with its punctuation) and an integer value.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendString appends s as a JSON string escaped exactly as encoding/json
// escapes it: HTML-sensitive <, > and &, control bytes, invalid UTF-8 (as
// U+FFFD) and U+2028/U+2029. The fixed verdict, mechanism and rule names
// need none of it and are copied in one append.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// jsonSafe reports an ASCII byte encoding/json copies into a string as is.
func jsonSafe(c byte) bool {
	return c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

const hexDigits = "0123456789abcdef"

// DecodeEpisodes reads an incident report written by WriteJSONL. Errors
// report the 1-based line number of the malformed line. Lines are read
// with an unbounded reader: one merged episode of a pathological run
// (saturation, per-cycle oracle, low threshold) can easily exceed any
// fixed scanner cap.
func DecodeEpisodes(r io.Reader) ([]*Episode, error) {
	var out []*Episode
	br := bufio.NewReaderSize(r, 1<<16)
	line := 0
	for {
		b, err := br.ReadBytes('\n')
		if len(b) > 0 {
			line++
			if trimmed := bytes.TrimRight(b, "\r\n"); len(trimmed) > 0 {
				ep := &Episode{}
				if jerr := json.Unmarshal(trimmed, ep); jerr != nil {
					return nil, fmt.Errorf("forensics: incidents line %d: %w", line, jerr)
				}
				out = append(out, ep)
			}
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
