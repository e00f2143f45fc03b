// Package router models the wormhole router fabric evaluated in the paper
// (Section 4.1): a network of routers with physical channels split into
// virtual channels, small per-VC flit buffers, a crossbar constrained to one
// flit per physical channel per cycle, multi-port injection/delivery (the
// "four port architecture" of McKinley et al.), and true fully adaptive
// minimal routing in which every virtual channel of every profitable
// physical channel is a candidate.
//
// The package provides the structural model and its primitive operations
// (flit movement, channel allocation and release). The cycle-by-cycle
// pipeline that drives it lives in internal/sim; the deadlock detection
// hardware that observes it lives in internal/detect.
package router

import (
	"fmt"

	"wormnet/internal/topology"
)

// LinkID identifies a physical channel (network link, injection port or
// delivery port). NilLink means "none".
type LinkID int32

// VCID identifies a virtual channel buffer. NilVC means "none".
type VCID int32

// MsgID identifies a message in the fabric's message pool. NilMsg means
// "none".
type MsgID int32

// Sentinel IDs.
const (
	NilLink LinkID = -1
	NilVC   VCID   = -1
	NilMsg  MsgID  = -1
)

// LinkKind distinguishes the three classes of physical channels.
type LinkKind uint8

// Link kinds.
const (
	// NetworkLink connects two adjacent routers. Its flit buffers sit at
	// the downstream router's input; the upstream router monitors it as an
	// output channel.
	NetworkLink LinkKind = iota
	// InjectionLink connects a node's source interface to its router. It is
	// an input channel of the router; the detection hardware associates a
	// G/P flag with it but no inactivity counter (it is nobody's output).
	InjectionLink
	// DeliveryLink connects a router to its local sink. It is an output
	// channel of the router; the sink drains it every cycle.
	DeliveryLink
)

func (k LinkKind) String() string {
	switch k {
	case NetworkLink:
		return "net"
	case InjectionLink:
		return "inj"
	case DeliveryLink:
		return "del"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Link is one physical channel.
type Link struct {
	// Kind classifies the channel.
	Kind LinkKind
	// Src is the upstream router (whose output channel this is), or -1 for
	// injection links.
	Src int32
	// Dst is the router at whose input the buffers sit; for delivery links
	// it is the node whose sink consumes the flits.
	Dst int32
	// Dir is the network direction for NetworkLink channels.
	Dir topology.Direction
	// FirstVC and NumVC locate this link's virtual channels in Fabric.VCs.
	FirstVC VCID
	NumVC   int32
	// rr is the round-robin pointer used by the transfer stage to arbitrate
	// among feeder VCs competing for this physical channel.
	rr int32
}

// RR returns the link's round-robin arbitration pointer.
func (l *Link) RR() int32 { return l.rr }

// AdvanceRR rotates the round-robin arbitration pointer after a grant.
func (l *Link) AdvanceRR() { l.rr++ }

// VC is one virtual channel buffer. Flits of the single occupying message
// are stored FIFO; because a wormhole buffer only ever holds flits of one
// message in order, the buffer is represented by a count plus header/tail
// presence bits.
type VC struct {
	// Link is the physical channel this VC belongs to.
	Link LinkID
	// Occupant is the message holding this VC, or NilMsg.
	Occupant MsgID
	// Flits is the number of flits currently buffered.
	Flits int32
	// Next is the downstream VC the occupant's worm continues into, or
	// NilVC while the header is still in this buffer (routing pending or in
	// progress).
	Next VCID
	// HasHeader records that the occupant's header flit is buffered here
	// (it is necessarily at the FIFO front).
	HasHeader bool
	// HasTail records that the occupant's tail flit is buffered here (it is
	// necessarily at the FIFO back).
	HasTail bool
}

// Config sizes a Fabric.
type Config struct {
	// VCsPerLink is the number of virtual channels per network physical
	// channel (3 in the paper).
	VCsPerLink int
	// BufFlits is the per-VC buffer capacity in flits (4 in the paper).
	BufFlits int
	// InjPorts and DelPorts are the number of injection and delivery ports
	// per node (4 each in the paper's four-port architecture).
	InjPorts int
	DelPorts int
}

// MaxVCsPerLink bounds Config.VCsPerLink: the transfer stage counts a link's
// feeders — at most one per VC — in one byte.
const MaxVCsPerLink = 255

// DefaultConfig returns the paper's router parameters.
func DefaultConfig() Config {
	return Config{VCsPerLink: 3, BufFlits: 4, InjPorts: 4, DelPorts: 4}
}

func (c Config) validate() error {
	switch {
	case c.VCsPerLink < 1 || c.VCsPerLink > MaxVCsPerLink:
		return fmt.Errorf("router: VCsPerLink must be in [1, %d], got %d", MaxVCsPerLink, c.VCsPerLink)
	case c.BufFlits < 1:
		return fmt.Errorf("router: BufFlits must be >= 1, got %d", c.BufFlits)
	case c.InjPorts < 1:
		return fmt.Errorf("router: InjPorts must be >= 1, got %d", c.InjPorts)
	case c.DelPorts < 1:
		return fmt.Errorf("router: DelPorts must be >= 1, got %d", c.DelPorts)
	}
	return nil
}

// Fabric is the complete structural state of the network: every physical
// channel, every virtual channel buffer, and the message pool.
type Fabric struct {
	Topo *topology.Torus
	Cfg  Config

	Links []Link
	VCs   []VC

	// Index bases into Links.
	netLinks int // number of network links; they occupy [0, netLinks)
	injBase  int // injection links occupy [injBase, injBase+nodes*InjPorts)
	delBase  int // delivery links occupy [delBase, delBase+nodes*DelPorts)

	// Message pool. Entries are individually heap-allocated so that
	// *Message pointers remain valid when the pool grows.
	msgs []*Message
	free []MsgID

	// Occupancy acceleration structures, maintained by Allocate and the
	// release paths. busy[l] counts occupied VCs of link l; occBits is the
	// occupied-VC set, indexed by VCID, and busyBits the busy-link set —
	// links with busy > 0 — indexed by LinkID (see bitset for the layout both
	// share). gen is the structural generation counter (Gen).
	busy     []int16
	occBits  bitset
	busyBits bitset
	gen      uint64

	// failed marks physical channels taken out of service by fault
	// injection; routing algorithms skip them.
	failed []bool

	// wormBuf is ReleaseWorm's reusable result buffer.
	wormBuf []VCID
	// freeSeen is RestoreSnapshot's scratch for the free-list duplicate check.
	freeSeen []bool
}

// Gen returns the structural generation counter: the total number of
// changes that can affect routing and deadlock analysis. Every VC
// allocation or release and every link failure or repair bumps it.
// Observers (the deadlock oracle) compare generations to detect that cached
// analyses are still current. Message-level state (Phase, Attempts) is not
// covered; owners report those separately.
func (f *Fabric) Gen() uint64 { return f.gen }

// NewFabric builds the fabric for the given topology and configuration.
func NewFabric(t *topology.Torus, cfg Config) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nodes := t.Nodes()
	deg := t.Degree()
	f := &Fabric{Topo: t, Cfg: cfg}
	f.netLinks = nodes * deg
	f.injBase = f.netLinks
	f.delBase = f.injBase + nodes*cfg.InjPorts
	total := f.delBase + nodes*cfg.DelPorts
	f.Links = make([]Link, total)

	var vcCount VCID
	addVCs := func(l *Link, n int) {
		l.FirstVC = vcCount
		l.NumVC = int32(n)
		vcCount += VCID(n)
	}
	for node := 0; node < nodes; node++ {
		for d := 0; d < deg; d++ {
			l := &f.Links[node*deg+d]
			l.Kind = NetworkLink
			l.Src = int32(node)
			l.Dst = int32(t.Neighbor(node, topology.Direction(d)))
			l.Dir = topology.Direction(d)
			addVCs(l, cfg.VCsPerLink)
		}
	}
	for node := 0; node < nodes; node++ {
		for p := 0; p < cfg.InjPorts; p++ {
			l := &f.Links[f.injBase+node*cfg.InjPorts+p]
			l.Kind = InjectionLink
			l.Src = -1
			l.Dst = int32(node)
			addVCs(l, 1)
		}
	}
	for node := 0; node < nodes; node++ {
		for p := 0; p < cfg.DelPorts; p++ {
			l := &f.Links[f.delBase+node*cfg.DelPorts+p]
			l.Kind = DeliveryLink
			l.Src = int32(node)
			l.Dst = int32(node)
			addVCs(l, 1)
		}
	}
	f.VCs = make([]VC, vcCount)
	for li := range f.Links {
		l := &f.Links[li]
		for v := VCID(0); v < VCID(l.NumVC); v++ {
			vc := &f.VCs[l.FirstVC+v]
			vc.Link = LinkID(li)
			vc.Occupant = NilMsg
			vc.Next = NilVC
		}
	}
	f.busy = make([]int16, total)
	f.failed = make([]bool, total)
	f.occBits = newBitset(int(vcCount))
	f.busyBits = newBitset(total)
	return f, nil
}

// FailLink takes a physical channel out of service. Routing algorithms
// will no longer propose it. The caller (the engine) is responsible for
// evicting any worms currently holding its virtual channels.
func (f *Fabric) FailLink(l LinkID) { f.failed[l] = true; f.gen++ }

// RepairLink returns a failed channel to service.
func (f *Fabric) RepairLink(l LinkID) { f.failed[l] = false; f.gen++ }

// LinkFailed reports whether channel l is out of service.
func (f *Fabric) LinkFailed(l LinkID) bool { return f.failed[l] }

// OccupantsOf returns the distinct messages currently holding virtual
// channels of link l.
func (f *Fabric) OccupantsOf(l LinkID) []MsgID {
	var out []MsgID
	link := &f.Links[l]
	for v := VCID(0); v < VCID(link.NumVC); v++ {
		occ := f.VCs[link.FirstVC+v].Occupant
		if occ == NilMsg {
			continue
		}
		dup := false
		for _, o := range out {
			if o == occ {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, occ)
		}
	}
	return out
}

// addOccupied registers vc in the occupancy structures.
func (f *Fabric) addOccupied(vc VCID) {
	l := f.VCs[vc].Link
	f.gen++
	f.busy[l]++
	if f.busy[l] == 1 {
		f.busyBits.set(int(l))
	}
	f.occBits.set(int(vc))
}

// removeOccupied unregisters vc.
func (f *Fabric) removeOccupied(vc VCID) {
	l := f.VCs[vc].Link
	f.gen++
	f.busy[l]--
	if f.busy[l] == 0 {
		f.busyBits.clear(int(l))
	}
	f.occBits.clear(int(vc))
}

// OccupiedBits returns both levels of the occupied-VC bitmap: bit v&63 of
// words[v>>6] is VC v, and bit w&63 of summary[w>>6] is set iff words[w] is
// non-zero. Summary-ascending, word-ascending, bit-ascending iteration yields
// the occupied VCs in ascending VCID order. The slices are owned by the
// fabric: callers must not mutate them, and an Allocate or release changes
// them in place.
func (f *Fabric) OccupiedBits() (words, summary []uint64) { return f.occBits.levels() }

// OccupiedWords starts an iteration over the occupied VCs.
func (f *Fabric) OccupiedWords() WordIter { return WordIter{b: &f.occBits} }

// BusyLinkWords starts an iteration over the busy-link set — physical
// channels with at least one occupied VC.
func (f *Fabric) BusyLinkWords() WordIter { return WordIter{b: &f.busyBits} }

// FirstDeliveryVC returns the lowest delivery VC. VCs are numbered in link
// order and the delivery links come last, so the delivery VCs are exactly the
// VCIDs from here up, node-major, port-minor — the canonical drain order.
func (f *Fabric) FirstDeliveryVC() VCID { return f.Links[f.delBase].FirstVC }

// NumOccupied returns the total number of occupied virtual channels.
func (f *Fabric) NumOccupied() int { return f.occBits.count() }

// NumBusyLinks returns the total number of physical channels with at least
// one occupied VC.
func (f *Fabric) NumBusyLinks() int { return f.busyBits.count() }

// NumLinks returns the total number of physical channels.
func (f *Fabric) NumLinks() int { return len(f.Links) }

// NumNetLinks returns the number of network physical channels; network
// links occupy LinkIDs [0, NumNetLinks).
func (f *Fabric) NumNetLinks() int { return f.netLinks }

// NetLink returns the ID of node's output network link in direction dir.
func (f *Fabric) NetLink(node int, dir topology.Direction) LinkID {
	return LinkID(node*f.Topo.Degree() + int(dir))
}

// InjLink returns the ID of node's injection port p.
func (f *Fabric) InjLink(node, p int) LinkID {
	return LinkID(f.injBase + node*f.Cfg.InjPorts + p)
}

// DelLink returns the ID of node's delivery port p.
func (f *Fabric) DelLink(node, p int) LinkID {
	return LinkID(f.delBase + node*f.Cfg.DelPorts + p)
}

// IsMonitored reports whether the detection hardware keeps an inactivity
// counter on this link (output channels of some router: network and
// delivery links).
func (f *Fabric) IsMonitored(id LinkID) bool {
	return f.Links[id].Kind != InjectionLink
}

// RouterOf returns the router that routes headers arriving on link id: the
// downstream node for network links and the local node for injection links.
// Delivery links carry no headers to route; RouterOf returns their node for
// completeness.
func (f *Fabric) RouterOf(id LinkID) int { return int(f.Links[id].Dst) }

// VCOf returns the vth virtual channel of link id.
func (f *Fabric) VCOf(id LinkID, v int) *VC { return &f.VCs[f.Links[id].FirstVC+VCID(v)] }

// LinkOfVC returns the physical channel that VC id belongs to.
func (f *Fabric) LinkOfVC(id VCID) LinkID { return f.VCs[id].Link }

// FreeVC returns the first free virtual channel of link id, or NilVC.
func (f *Fabric) FreeVC(id LinkID) VCID {
	l := &f.Links[id]
	if f.busy[id] >= int16(l.NumVC) {
		return NilVC
	}
	for v := VCID(0); v < VCID(l.NumVC); v++ {
		if f.VCs[l.FirstVC+v].Occupant == NilMsg {
			return l.FirstVC + v
		}
	}
	return NilVC
}

// BusyVCs returns how many virtual channels of link id are occupied.
func (f *Fabric) BusyVCs(id LinkID) int { return int(f.busy[id]) }

// AllVCsBusy reports whether every virtual channel of link id is occupied.
func (f *Fabric) AllVCsBusy(id LinkID) bool {
	return f.busy[id] >= int16(f.Links[id].NumVC)
}

// BusyNetOutputVCs counts the occupied virtual channels among node's
// network output links. The injection-limitation mechanism (López & Duato)
// admits a new message only while this count is at or below its threshold.
func (f *Fabric) BusyNetOutputVCs(node int) int {
	busy := 0
	deg := f.Topo.Degree()
	base := node * deg
	for d := 0; d < deg; d++ {
		busy += int(f.busy[base+d])
	}
	return busy
}

// Allocate assigns virtual channel vc to message m and links it as the
// continuation of the worm's current head VC (from), which may be NilVC for
// the very first allocation at injection. It panics on double allocation,
// which would indicate an engine bug.
func (f *Fabric) Allocate(m *Message, from VCID, vc VCID) {
	tgt := &f.VCs[vc]
	if tgt.Occupant != NilMsg {
		panic(fmt.Sprintf("router: VC %d already occupied by message %d", vc, tgt.Occupant))
	}
	tgt.Occupant = m.ID
	tgt.Next = NilVC
	f.addOccupied(vc)
	if from != NilVC {
		src := &f.VCs[from]
		if src.Occupant != m.ID {
			panic(fmt.Sprintf("router: allocate from VC %d not held by message %d", from, m.ID))
		}
		src.Next = vc
	}
	if m.TailVC == NilVC {
		m.TailVC = vc
	}
}

// MoveFlit transfers one flit from VC u into VC v = u.Next, updating worm
// bookkeeping. The caller has already verified buffer space, bandwidth and
// arbitration. It returns flags describing the flit that moved so callers
// can update message state and detection hardware: header if it was the
// worm's header flit, tail if it was the tail (u is then released).
func (f *Fabric) MoveFlit(u VCID) (header, tail bool) {
	src := &f.VCs[u]
	if src.Flits <= 0 || src.Next == NilVC {
		panic("router: MoveFlit on VC with no forwardable flit")
	}
	dst := &f.VCs[src.Next]
	if dst.Flits >= int32(f.Cfg.BufFlits) {
		panic("router: MoveFlit into full buffer")
	}
	header = src.HasHeader
	tail = src.HasTail && src.Flits == 1
	src.Flits--
	dst.Flits++
	if header {
		src.HasHeader = false
		dst.HasHeader = true
	}
	if tail {
		src.HasTail = false
		dst.HasTail = true
		f.releaseVC(u)
	}
	return header, tail
}

// releaseVC frees VC u after the occupant's tail has left it.
func (f *Fabric) releaseVC(u VCID) {
	vc := &f.VCs[u]
	f.removeOccupied(u)
	vc.Occupant = NilMsg
	vc.Next = NilVC
	vc.HasHeader = false
	vc.HasTail = false
	if vc.Flits != 0 {
		panic("router: releasing VC with buffered flits")
	}
}

// ReleaseEmptyVC frees VC u after its occupant's remaining flits (including
// the tail) were consumed in place — by the delivery sink or by progressive
// recovery absorption — rather than forwarded. It panics if flits remain.
func (f *Fabric) ReleaseEmptyVC(u VCID) {
	vc := &f.VCs[u]
	if vc.Occupant == NilMsg {
		panic("router: ReleaseEmptyVC on free VC")
	}
	vc.HasHeader = false
	vc.HasTail = false
	f.releaseVC(u)
}

// ReleaseWorm frees every virtual channel still held by message m, dropping
// any buffered flits. It is used by regressive (abort-and-retry) recovery.
// It returns the freed VCs so the caller can raise flow-control events; the
// slice is a reusable scratch buffer invalidated by the next ReleaseWorm
// call, so callers must consume (or copy) it immediately.
func (f *Fabric) ReleaseWorm(m *Message) []VCID {
	freed := f.wormBuf[:0]
	for vc := m.TailVC; vc != NilVC; {
		next := f.VCs[vc].Next
		f.VCs[vc].Flits = 0
		f.releaseVC(vc)
		freed = append(freed, vc)
		vc = next
	}
	m.TailVC = NilVC
	m.HeadVC = NilVC
	f.wormBuf = freed
	return freed
}

// HeaderBlocked reports whether VC id currently holds a header that is
// waiting to be routed (header present, no output assigned).
func (f *Fabric) HeaderBlocked(id VCID) bool {
	vc := &f.VCs[id]
	return vc.HasHeader && vc.Next == NilVC && vc.Flits > 0
}

// Msg returns the message with the given ID.
func (f *Fabric) Msg(id MsgID) *Message { return f.msgs[id] }

// NewMessage obtains a fresh message from the pool.
func (f *Fabric) NewMessage(src, dst, length int, genTime int64) *Message {
	var id MsgID
	if n := len(f.free); n > 0 {
		id = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		id = MsgID(len(f.msgs))
		f.msgs = append(f.msgs, &Message{})
	}
	m := f.msgs[id]
	*m = Message{
		ID:      id,
		Src:     int32(src),
		Dst:     int32(dst),
		Length:  int32(length),
		GenTime: genTime,
		HeadVC:  NilVC,
		TailVC:  NilVC,
	}
	return m
}

// FreeMessage returns a message to the pool. The caller must have released
// all fabric resources first.
func (f *Fabric) FreeMessage(m *Message) {
	id := m.ID
	*m = Message{ID: id, HeadVC: NilVC, TailVC: NilVC}
	f.free = append(f.free, id)
}

// LiveMessages calls fn for every message that is currently allocated (in a
// source queue, occupying fabric resources, being injected, or retained
// after delivery). It does not allocate: FreeMessage zeroes a recycled
// entry's Length, so pool membership is encoded in the entries themselves
// and the free list never needs to be consulted.
func (f *Fabric) LiveMessages(fn func(*Message)) {
	for _, m := range f.msgs {
		if m.Length > 0 {
			fn(m)
		}
	}
}

// CheckInvariants validates structural consistency of worm state: every
// occupied VC chain is connected, flit counts respect capacity, and header
// and tail bits appear exactly where the occupant's state says they should.
// It is called from tests and (optionally) from the engine in debug mode.
func (f *Fabric) CheckInvariants() error {
	busy := make([]int16, len(f.Links))
	// want is the word level a bitmap should hold, recounted here for the
	// occupied VCs first and then for the busy links: a member's bit is set
	// only while it is held.
	want := make([]uint64, f.occBits.words)
	for i := range f.VCs {
		vc := &f.VCs[i]
		if vc.Occupant == NilMsg {
			if vc.Flits != 0 || vc.HasHeader || vc.HasTail || vc.Next != NilVC {
				return fmt.Errorf("router: free VC %d has residual state %+v", i, *vc)
			}
			continue
		}
		busy[vc.Link]++
		want[i>>6] |= 1 << (i & 63)
		if vc.Flits < 0 || vc.Flits > int32(f.Cfg.BufFlits) {
			return fmt.Errorf("router: VC %d flit count %d out of range", i, vc.Flits)
		}
		if vc.Next != NilVC && f.VCs[vc.Next].Occupant != vc.Occupant {
			return fmt.Errorf("router: VC %d next %d held by different message", i, vc.Next)
		}
	}
	if err := f.occBits.audit("VC", want); err != nil {
		return err
	}
	clear(want)
	for l := range busy {
		if busy[l] != f.busy[l] {
			return fmt.Errorf("router: link %d busy count %d, recount %d", l, f.busy[l], busy[l])
		}
		if busy[l] > 0 {
			want[l>>6] |= 1 << (l & 63)
		}
	}
	return f.busyBits.audit("link", want)
}
