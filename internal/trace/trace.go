// Package trace is the simulator's flight recorder: a fixed-capacity ring
// buffer of typed, packed event records emitted by the engine, the detection
// mechanisms and the recovery path. It exists to make detection *behavior*
// observable — the I/DT flag transitions, G/P promotions and demotions, and
// verdicts that produce the paper's numbers — rather than only end-of-run
// aggregates.
//
// Cost contract. A nil *Recorder is valid everywhere: every method
// nil-checks its receiver and returns immediately, so an untraced simulation
// pays one predictable branch per emit site and performs zero allocations.
// With a recorder attached, events are written into a pre-allocated ring
// (overwriting the oldest when full), still without allocating; an optional
// sink additionally streams each event as one JSON line through a reusable
// encode buffer.
//
// Event ordering is the emission order within one engine cycle, which
// follows the engine's pipeline stages (transfer, detector EndCycle,
// routing, recovery). Conformance tests replay this stream to check the
// paper's flag-transition rules.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"wormnet/internal/router"
)

// Kind identifies an event type.
type Kind uint8

// Event kinds. The zero Kind is invalid so an all-zero Event is detectably
// empty.
const (
	KindInvalid Kind = iota
	// KindInject: message admitted into the network. Msg, Link (injection
	// port), Node (source).
	KindInject
	// KindDeliver: tail consumed at the destination. Msg, Node, Arg =
	// generation-to-delivery latency in cycles.
	KindDeliver
	// KindVCAlloc: virtual channel allocated to a message. Msg, Link, Aux =
	// VC id.
	KindVCAlloc
	// KindVCFree: a virtual channel of Link was released (tail passed, or
	// recovery released the worm) — exactly the flow-control event the
	// detection hardware observes.
	KindVCFree
	// KindRouteOK: a blocked or newly arrived header was routed. Msg, Link
	// (input channel), Node, Arg = output link id, Aux = output VC id.
	KindRouteOK
	// KindRouteFail: a routing attempt failed. Msg, Link (input channel),
	// Node, Arg = failed attempts so far at this router (1 = first).
	KindRouteFail
	// KindISet / KindIClear: the I (inactivity, threshold t1) flag of output
	// channel Link transitioned.
	KindISet
	KindIClear
	// KindDTSet / KindDTClear: the DT (deadlock-threshold t2) flag of output
	// channel Link transitioned. PDM's single inactivity flag is reported
	// with these kinds, since it is that mechanism's detection threshold.
	KindDTSet
	KindDTClear
	// KindGSet: the G/P flag of input channel Link changed to G. Arg = the
	// rule that fired (GRuleFirstAttempt or GRulePromotion), Aux = the
	// witness output link (the still-active requested output for rule 1, the
	// output whose I flag reset for the promotion rule), Msg = the blocked
	// message for rule 1 (NilMsg for promotions).
	KindGSet
	// KindPSet: the G/P flag of input channel Link changed to P. Arg = the
	// reason (PReason*), Msg = the routed message when known.
	KindPSet
	// KindDetect: a mechanism marked Msg as deadlocked at Node. Arg = 1 if
	// the oracle confirmed a true deadlock, 0 for a false detection.
	KindDetect
	// KindRecoverStart: recovery of Msg began at Node. Arg = recovery style
	// (0 progressive, 1 regressive).
	KindRecoverStart
	// KindRecoverEnd: Msg has been fully removed from the fabric. Node = the
	// node it re-enters from; Arg = 1 when recovery delivered it (the
	// absorbing node was the destination).
	KindRecoverEnd
	// KindOracleDeadlock: the omniscient oracle observed Msg entering a true
	// deadlock for the first time. Arg = size of the deadlocked set. The
	// interval from this event to the matching KindDetect is the detection
	// latency.
	KindOracleDeadlock
	// KindProbeEmit: blocked initiator Msg launched a CMH edge-chasing probe
	// onto output channel Link at router Node, chasing the worm Aux that
	// holds the channel. Arg = the probe's hop count (1 for a fresh probe).
	KindProbeEmit
	// KindProbeForward: a probe of initiator Msg reached the blocked header
	// of the worm it was chasing and was forwarded onto output channel Link
	// at router Node, now chasing worm Aux. Arg = hop count.
	KindProbeForward
	// KindProbeDrop: a probe of initiator Msg terminated without returning.
	// Link = the probe's last position, Aux = the worm it was chasing, Arg =
	// the ProbeDrop* reason.
	KindProbeDrop
	// KindProbeReturn: a probe of initiator Msg arrived at output channel
	// Link (router Node) whose virtual channels include one held by its own
	// initiator — an edge-chasing cycle. Arg = hop count, Aux = the victim
	// the detector schedules for marking.
	KindProbeReturn

	numKinds
)

var kindNames = [numKinds]string{
	KindInvalid:        "invalid",
	KindInject:         "inject",
	KindDeliver:        "deliver",
	KindVCAlloc:        "vc-alloc",
	KindVCFree:         "vc-free",
	KindRouteOK:        "route-ok",
	KindRouteFail:      "route-fail",
	KindISet:           "i-set",
	KindIClear:         "i-clear",
	KindDTSet:          "dt-set",
	KindDTClear:        "dt-clear",
	KindGSet:           "g-set",
	KindPSet:           "p-set",
	KindDetect:         "detect",
	KindRecoverStart:   "recover-start",
	KindRecoverEnd:     "recover-end",
	KindOracleDeadlock: "oracle-deadlock",
	KindProbeEmit:      "probe-emit",
	KindProbeForward:   "probe-forward",
	KindProbeDrop:      "probe-drop",
	KindProbeReturn:    "probe-return",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindNames returns the JSONL names of every valid event kind, in
// declaration order. Callers use it to report the legal values when
// rejecting an unknown kind name.
func KindNames() []string {
	names := make([]string, 0, int(numKinds)-1)
	for k := KindInvalid + 1; k < numKinds; k++ {
		names = append(names, kindNames[k])
	}
	return names
}

// KindByName returns the Kind with the given JSONL name.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name && Kind(k) != KindInvalid {
			return Kind(k), true
		}
	}
	return KindInvalid, false
}

// G-rule codes carried in KindGSet.Arg.
const (
	// GRuleFirstAttempt is the paper's rule 1: on the first failed routing
	// attempt, with every virtual channel of the input busy, some requested
	// output channel was still active (I clear) — this message waits on the
	// possible root of the tree of blocked messages.
	GRuleFirstAttempt = 1
	// GRulePromotion is the Figure 5 re-arm: an I flag reset by a flit
	// transmission promotes waiting inputs from P back to G.
	GRulePromotion = 2
)

// P-reason codes carried in KindPSet.Arg.
const (
	// PReasonRouteOK: the channel's last arrival routed successfully.
	PReasonRouteOK = 1
	// PReasonVCFreed: a virtual channel of the input was released.
	PReasonVCFreed = 2
	// PReasonNotLastArrival: first failed attempt, but a VC of the input is
	// still free — the message is not the latest arrival (rule 2a).
	PReasonNotLastArrival = 3
	// PReasonAllInactive: first failed attempt and every requested output is
	// already inactive — another message blocked first and owns detection
	// (rule 2b).
	PReasonAllInactive = 4
)

// Probe-drop reason codes carried in KindProbeDrop.Arg.
const (
	// ProbeDropStale: the channel the probe sat on changed hands, or the
	// worm it was chasing moved or left the network — the wait edge the
	// probe was traversing no longer exists.
	ProbeDropStale = 1
	// ProbeDropRoutable: the probe reached a blocked header that has a free
	// virtual channel on some feasible output — the worm is not actually
	// wait-blocked, so the edge chase ends here.
	ProbeDropRoutable = 2
	// ProbeDropHops: the probe exceeded the detector's MaxHops cap.
	ProbeDropHops = 3
	// ProbeDropDeadEnd: the blocked header's dependency edges were all
	// either already probed this wave (digest dedupe) or chased the probe's
	// own target, leaving nothing to forward onto.
	ProbeDropDeadEnd = 4
)

// Event is one packed flight-recorder record. Unused reference fields hold
// the router package's Nil sentinels (or -1 for Node/Aux).
type Event struct {
	Cycle int64
	Arg   int64
	Msg   router.MsgID
	Link  router.LinkID
	Node  int32
	Aux   int32
	Kind  Kind
}

// Recorder accumulates events into a fixed ring and, optionally, a JSONL
// sink. The zero value is not usable; construct with NewRecorder. A nil
// *Recorder is a valid no-op recorder.
//
// Recorders are not safe for concurrent use: each simulation engine owns at
// most one. Sweeps that trace must attach a distinct recorder per run.
type Recorder struct {
	cycle int64
	ring  []Event
	next  int // ring write position
	size  int // valid events in ring
	total uint64

	sink    *bufio.Writer
	buf     []byte
	sinkErr error

	obs func(Event)
}

// DefaultCapacity is the ring size NewRecorder uses for last <= 0.
const DefaultCapacity = 4096

// NewRecorder returns a recorder whose ring keeps the most recent `last`
// events (DefaultCapacity when last <= 0).
func NewRecorder(last int) *Recorder {
	if last <= 0 {
		last = DefaultCapacity
	}
	return &Recorder{ring: make([]Event, last), buf: make([]byte, 0, 160)}
}

// NewStreaming returns a recorder that streams every event to w as JSONL
// while keeping the most recent `last` events in its ring (DefaultCapacity
// when last <= 0). It is NewRecorder + SetSink; callers must Flush before
// reading w's destination.
func NewStreaming(w io.Writer, last int) *Recorder {
	r := NewRecorder(last)
	r.SetSink(w)
	return r
}

// SetSink additionally streams every subsequent event to w as one JSON line.
// Encoding errors are sticky and reported by SinkErr; the ring keeps
// recording regardless.
func (r *Recorder) SetSink(w io.Writer) {
	if r == nil {
		return
	}
	r.sink = bufio.NewWriterSize(w, 1<<16)
}

// BeginCycle stamps the cycle subsequent events are recorded under. The
// engine calls it once per Step.
func (r *Recorder) BeginCycle(now int64) {
	if r == nil {
		return
	}
	r.cycle = now
}

// Emit records one event under the current cycle. It is safe (and free
// beyond one branch) on a nil receiver.
func (r *Recorder) Emit(k Kind, msg router.MsgID, link router.LinkID, node int32, arg int64, aux int32) {
	if r == nil {
		return
	}
	r.record(Event{Cycle: r.cycle, Kind: k, Msg: msg, Link: link, Node: node, Arg: arg, Aux: aux})
}

func (r *Recorder) record(ev Event) {
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	if r.size < len(r.ring) {
		r.size++
	}
	r.total++
	if r.sink != nil && r.sinkErr == nil {
		r.buf = AppendJSON(r.buf[:0], ev)
		r.buf = append(r.buf, '\n')
		if _, err := r.sink.Write(r.buf); err != nil {
			r.sinkErr = err
		}
	}
	if r.obs != nil {
		r.obs(ev)
	}
}

// SetObserver attaches fn to be called synchronously with every recorded
// event, after the ring (and sink, if any) have seen it. Pass nil to detach.
// Because every emit site runs on the goroutine stepping the engine, fn sees
// events in a single-threaded, deterministic order. Nil-safe.
func (r *Recorder) SetObserver(fn func(Event)) {
	if r == nil {
		return
	}
	r.obs = fn
}

// Total returns how many events have been emitted over the recorder's
// lifetime (>= Len when the ring has wrapped).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Len returns how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.size
}

// Events appends the ring's contents, oldest first, to buf and returns it.
func (r *Recorder) Events(buf []Event) []Event {
	if r == nil || r.size == 0 {
		return buf
	}
	start := r.next - r.size
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.size; i++ {
		buf = append(buf, r.ring[(start+i)%len(r.ring)])
	}
	return buf
}

// Contains reports whether the ring currently holds an event of kind k.
func (r *Recorder) Contains(k Kind) bool {
	if r == nil {
		return false
	}
	start := r.next - r.size
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.size; i++ {
		if r.ring[(start+i)%len(r.ring)].Kind == k {
			return true
		}
	}
	return false
}

// Flush flushes the sink, if any, and returns any sticky sink error.
func (r *Recorder) Flush() error {
	if r == nil || r.sink == nil {
		return r.SinkErr()
	}
	if err := r.sink.Flush(); err != nil && r.sinkErr == nil {
		r.sinkErr = err
	}
	return r.sinkErr
}

// SinkErr returns the first error the sink produced, if any.
func (r *Recorder) SinkErr() error {
	if r == nil {
		return nil
	}
	return r.sinkErr
}

// Dump writes the ring's contents, oldest first, to w as JSONL.
func (r *Recorder) Dump(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 160)
	start := r.next - r.size
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.size; i++ {
		buf = AppendJSON(buf[:0], r.ring[(start+i)%len(r.ring)])
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendJSON appends ev as one JSON object (no trailing newline) to buf.
// Reference fields holding Nil sentinels are omitted.
func AppendJSON(buf []byte, ev Event) []byte {
	buf = append(buf, `{"cycle":`...)
	buf = strconv.AppendInt(buf, ev.Cycle, 10)
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, ev.Kind.String()...)
	buf = append(buf, '"')
	if ev.Msg != router.NilMsg {
		buf = append(buf, `,"msg":`...)
		buf = strconv.AppendInt(buf, int64(ev.Msg), 10)
	}
	if ev.Link != router.NilLink {
		buf = append(buf, `,"link":`...)
		buf = strconv.AppendInt(buf, int64(ev.Link), 10)
	}
	if ev.Node >= 0 {
		buf = append(buf, `,"node":`...)
		buf = strconv.AppendInt(buf, int64(ev.Node), 10)
	}
	if ev.Arg != 0 {
		buf = append(buf, `,"arg":`...)
		buf = strconv.AppendInt(buf, ev.Arg, 10)
	}
	if ev.Aux >= 0 {
		buf = append(buf, `,"aux":`...)
		buf = strconv.AppendInt(buf, int64(ev.Aux), 10)
	}
	return append(buf, '}')
}

// jsonEvent mirrors the JSONL field layout for decoding.
type jsonEvent struct {
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	Msg   int32  `json:"msg"`
	Link  int32  `json:"link"`
	Node  int32  `json:"node"`
	Arg   int64  `json:"arg"`
	Aux   int32  `json:"aux"`
}

// MaxID is the largest message, link, node or virtual-channel id Scan
// accepts. Consumers index tables by these ids, so the bound is what keeps a
// hostile trace from growing them without limit. The largest fabric any
// workload builds has about 57 k links and a few hundred thousand virtual
// channels; message ids stay below nodes × (source queue + worms in flight).
const MaxID = 1 << 20

// msgKinds and linkKinds hold the kinds whose events always carry a msg or
// a link (see the Kind constants): consumers index by them unchecked.
const (
	msgKinds = 1<<KindInject | 1<<KindDeliver | 1<<KindVCAlloc | 1<<KindRouteOK | 1<<KindRouteFail |
		1<<KindDetect | 1<<KindRecoverStart | 1<<KindRecoverEnd | 1<<KindOracleDeadlock
	linkKinds = 1<<KindVCAlloc | 1<<KindVCFree | 1<<KindRouteOK | 1<<KindRouteFail | 1<<KindISet |
		1<<KindIClear | 1<<KindDTSet | 1<<KindDTClear | 1<<KindGSet | 1<<KindPSet
)

// checkIDs refuses an id outside [-1, MaxID] — a route-ok's Arg is its
// output link, so it counts — and a Nil msg or link the kind always sets.
func (je *jsonEvent) checkIDs(k Kind) error {
	arg := int64(-1)
	if k == KindRouteOK {
		arg = je.Arg
	}
	for i, v := range [...]int64{int64(je.Msg), int64(je.Link), int64(je.Node), int64(je.Aux), arg} {
		if v < -1 || v > MaxID {
			name := [...]string{"msg", "link", "node", "aux", "arg"}[i]
			return fmt.Errorf("%s %s id %d outside [-1, %d]", k, name, v, MaxID)
		}
	}
	if je.Msg < 0 && msgKinds>>k&1 != 0 || je.Link < 0 && linkKinds>>k&1 != 0 {
		return fmt.Errorf("%s event without its msg or link", k)
	}
	return nil
}

// Scan streams a JSONL event stream written by Dump or a streaming sink,
// calling fn once per event in file order. Unlike Decode it never holds more
// than one line in memory, so arbitrarily long traces can be processed.
// Malformed lines abort the scan with the 1-based line number and the byte
// offset at which the line starts, and so does an id out of range or missing
// (see MaxID and checkIDs). An error returned by fn aborts it as-is.
func Scan(rd io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	var offset int64
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		lineStart := offset
		offset += int64(len(line)) + 1
		if len(line) == 0 {
			continue
		}
		je := jsonEvent{Msg: -1, Link: -1, Node: -1, Aux: -1}
		if err := json.Unmarshal(line, &je); err != nil {
			return fmt.Errorf("trace: line %d (byte %d): %w", lineNo, lineStart, err)
		}
		kind, ok := KindByName(je.Kind)
		if !ok {
			return fmt.Errorf("trace: line %d (byte %d): unknown event kind %q", lineNo, lineStart, je.Kind)
		}
		if err := je.checkIDs(kind); err != nil {
			return fmt.Errorf("trace: line %d (byte %d): %w", lineNo, lineStart, err)
		}
		if err := fn(Event{
			Cycle: je.Cycle,
			Kind:  kind,
			Msg:   router.MsgID(je.Msg),
			Link:  router.LinkID(je.Link),
			Node:  je.Node,
			Arg:   je.Arg,
			Aux:   je.Aux,
		}); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Decode reads a JSONL event stream written by Dump or a streaming sink.
// It loads the whole trace into memory; use Scan to stream instead.
func Decode(rd io.Reader) ([]Event, error) {
	var out []Event
	if err := Scan(rd, func(ev Event) error {
		out = append(out, ev)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
