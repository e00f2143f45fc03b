package router

import (
	"encoding/binary"
	"math/bits"

	"wormnet/internal/snap"
)

// The fabric's share of sim.Engine.Snapshot and Restore, and of the model
// checker's canonical state key (sim.Engine.AppendCanonical).
//
// Written: the whole message pool (every field of every entry but the route
// memo, then the free list in order — NewMessage pops it from the back, so its
// order decides the next MsgIDs), the occupied virtual channels in ascending
// VCID order, and every link's round-robin pointer.
//
// Derived, and therefore rebuilt rather than read: the busy counts, both
// levels of the occupied-VC and busy-link bitmaps are cleared and come back
// through addOccupied, the code that maintains them while the engine runs.
// Route memos come back empty (a lookup refills one). The structural
// generation counter is not restored but keeps counting up, so a generation
// observed before a Restore is never seen again after it.
//
// restoreMessage assigns every field of Message by name; a field added to the
// struct needs a line there and in appendSnapshot
// (TestMessageSnapshotCoversEveryField).

const (
	msgSnapBytes = 10*4 + 2 + 6*8 // see Message.appendSnapshot
	vcSnapBytes  = 4*4 + 1
)

// NumMessages returns the size of the message pool: MsgIDs in [0,
// NumMessages) are valid arguments to Msg.
func (f *Fabric) NumMessages() int { return len(f.msgs) }

// appendSnapshot writes m. In canonical mode it writes m's ID first, Attempts
// clamped at 2 (the engine reads it only as zero, one or more), and neither
// Retries, TrueDeadlock nor the time stamps: they are telemetry, or absolute
// stamps whose behavioural content a detector's canonical bytes carry as a
// clamped age.
func (m *Message) appendSnapshot(dst []byte, md snap.Mode) []byte {
	if md.Canonical {
		dst = md.I32(dst, int32(m.ID))
	}
	dst = md.I32(dst, m.Src)
	dst = md.I32(dst, m.Dst)
	dst = md.I32(dst, m.Length)
	dst = md.I32(dst, int32(m.HeadVC))
	dst = md.I32(dst, int32(m.TailVC))
	dst = md.I32(dst, m.Injected)
	dst = md.I32(dst, m.Consumed)
	dst = md.I32(dst, int32(m.InjLink))
	if md.Canonical {
		return append(md.I32(dst, min(m.Attempts, 2)), uint8(m.Phase), snapBool(m.Marked))
	}
	dst = snap.I32(dst, m.Attempts)
	dst = snap.I32(dst, m.Retries)
	dst = append(dst, uint8(m.Phase), snapBool(m.Marked)|snapBool(m.TrueDeadlock)<<1)
	dst = snap.I64(dst, m.GenTime)
	dst = snap.I64(dst, m.InjectTime)
	dst = snap.I64(dst, m.DeliverTime)
	dst = snap.I64(dst, m.BlockedSince)
	dst = snap.I64(dst, m.LastSourceFlit)
	return snap.I64(dst, m.MarkTime)
}

func snapBool(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// AppendSnapshot appends the fabric's state to dst. In canonical mode it
// writes the live messages alone, each with its ID, and no free list or
// round-robin pointers: a Chooser pins the pointers, and the key treats
// states that differ only in which pool slots are free, or in their order, as
// one. There both lists end in -1, which no message or VC is, instead of
// starting with a count.
func (f *Fabric) AppendSnapshot(dst []byte, md snap.Mode) []byte {
	if md.Canonical {
		for _, m := range f.msgs {
			if m.Length > 0 { // LiveMessages' test
				dst = m.appendSnapshot(dst, md)
			}
		}
		dst = snap.Int(dst, -1)
	} else {
		dst = snap.U32(dst, uint32(len(f.msgs)))
		for _, m := range f.msgs {
			dst = m.appendSnapshot(dst, md)
		}
		dst = snap.IDs(md, dst, f.free)
		dst = snap.U32(dst, uint32(f.NumOccupied()))
	}

	for i := range f.VCs {
		vc := &f.VCs[i]
		if vc.Occupant == NilMsg {
			continue
		}
		dst = md.I32(dst, int32(i))
		dst = md.I32(dst, int32(vc.Occupant))
		dst = md.I32(dst, int32(vc.Next))
		dst = md.I32(dst, vc.Flits)
		dst = append(dst, snapBool(vc.HasHeader)|snapBool(vc.HasTail)<<1)
	}
	if md.Canonical {
		return snap.Int(dst, -1)
	}
	for l := range f.Links {
		dst = snap.I32(dst, f.Links[l].rr)
	}
	return dst
}

// RestoreSnapshot replaces the fabric's state with what AppendSnapshot wrote
// for a fabric of the same topology and configuration. Message pointers stay
// valid: pool entries are overwritten in place, entries beyond the snapshot's
// pool are dropped and missing ones allocated. Every identifier and count is
// range-checked while decoding and the restored worms are checked as a whole
// (checkWorms); errors stay in r, and after an error the fabric is in an
// unspecified state.
func (f *Fabric) RestoreSnapshot(r *snap.Reader) {
	// Empty the fabric: every occupied VC back to its free state, every
	// derived structure back to what NewFabric built. The snapshot's VCs then
	// come in through addOccupied like any allocation.
	for it := f.OccupiedWords(); ; {
		w, word, ok := it.Next()
		if !ok {
			break
		}
		for ; word != 0; word &= word - 1 {
			vc := &f.VCs[w<<6+bits.TrailingZeros64(word)]
			f.busy[vc.Link] = 0
			*vc = VC{Link: vc.Link, Occupant: NilMsg, Next: NilVC}
		}
	}
	clear(f.occBits.bits)
	clear(f.busyBits.bits)

	nMsgs := r.Len(msgSnapBytes)
	if nMsgs < len(f.msgs) {
		clear(f.msgs[nMsgs:]) // let the dropped entries go
		f.msgs = f.msgs[:nMsgs]
	}
	for len(f.msgs) < nMsgs {
		f.msgs = append(f.msgs, &Message{})
	}
	for id, m := range f.msgs {
		f.restoreMessage(r, m, MsgID(id))
	}
	f.free = snap.ReadIDs(r, f.free, 0, nMsgs)

	nOcc := r.Len(vcSnapBytes)
	prev := -1
	for i := 0; i < nOcc && r.Err() == nil; i++ {
		b := r.Bytes(vcSnapBytes)
		if b == nil {
			return
		}
		id := int(int32(binary.LittleEndian.Uint32(b)))
		occ := int32(binary.LittleEndian.Uint32(b[4:]))
		next := int32(binary.LittleEndian.Uint32(b[8:]))
		flits, flags := int32(binary.LittleEndian.Uint32(b[12:])), b[16]
		switch {
		case id <= prev || id >= len(f.VCs):
			r.Failf("router: snapshot lists VC %d after VC %d (fabric has %d)", id, prev, len(f.VCs))
		case occ < 0 || int(occ) >= nMsgs:
			r.Failf("router: snapshot VC %d is held by message %d, outside the pool of %d", id, occ, nMsgs)
		case next < -1 || int(next) >= len(f.VCs) || int(next) == id:
			r.Failf("router: snapshot VC %d continues into VC %d", id, next)
		case flits < 0 || int(flits) > f.Cfg.BufFlits || flags > 3:
			r.Failf("router: snapshot VC %d buffers %d flits with flags %#x", id, flits, flags)
		}
		if r.Err() != nil {
			return
		}
		prev = id
		vc := &f.VCs[id]
		vc.Occupant = MsgID(occ)
		vc.Next = VCID(next)
		vc.Flits = flits
		vc.HasHeader = flags&1 != 0
		vc.HasTail = flags&2 != 0
		f.addOccupied(VCID(id))
	}

	if rr := r.Bytes(4 * len(f.Links)); rr != nil {
		for l := range f.Links {
			f.Links[l].rr = int32(binary.LittleEndian.Uint32(rr[4*l:]))
			if f.Links[l].rr < 0 {
				r.Failf("router: snapshot holds round-robin pointer %d for link %d", f.Links[l].rr, l)
			}
		}
	}
	f.gen++ // emptying the fabric above released VCs without a bump
	if r.Err() == nil {
		f.checkWorms(r, nOcc)
	}
}

// FabricCopy is the fabric's share of sim.Engine's restore copy: the fabric's
// mutable state, by value, as CopyTo found it. The engine takes one right
// after a successful RestoreSnapshot and puts it back with CopyFrom when the
// same bytes are restored again, instead of decoding them.
type FabricCopy struct {
	msgs     []Message // the pool, entry by entry, route memos empty
	free     []MsgID
	vcs      []VC
	rr       []int32 // every link's round-robin pointer
	busy     []int16
	occBits  []uint64
	busyBits []uint64
}

// CopyTo records the fabric's mutable state in c, reusing c's buffers.
func (f *Fabric) CopyTo(c *FabricCopy) {
	c.msgs = c.msgs[:0]
	for _, m := range f.msgs {
		c.msgs = append(c.msgs, *m)
		c.msgs[len(c.msgs)-1].Route = RouteMemo{}
	}
	c.free = append(c.free[:0], f.free...)
	c.vcs = append(c.vcs[:0], f.VCs...)
	c.rr = c.rr[:0]
	for l := range f.Links {
		c.rr = append(c.rr, f.Links[l].rr)
	}
	c.busy = append(c.busy[:0], f.busy...)
	c.occBits = append(c.occBits[:0], f.occBits.bits...)
	c.busyBits = append(c.busyBits[:0], f.busyBits.bits...)
}

// CopyFrom puts back what CopyTo recorded from a fabric of the same topology
// and configuration, leaving what RestoreSnapshot leaves: pool entries
// overwritten in place (entries beyond the copy's pool dropped, missing ones
// allocated), route memos empty, and the generation counter bumped.
func (f *Fabric) CopyFrom(c *FabricCopy) {
	if n := len(c.msgs); n < len(f.msgs) {
		clear(f.msgs[n:]) // let the dropped entries go
		f.msgs = f.msgs[:n]
	}
	for len(f.msgs) < len(c.msgs) {
		f.msgs = append(f.msgs, &Message{})
	}
	for id, m := range f.msgs {
		*m = c.msgs[id]
	}
	f.free = append(f.free[:0], c.free...)
	copy(f.VCs, c.vcs)
	for l := range f.Links {
		f.Links[l].rr = c.rr[l]
	}
	copy(f.busy, c.busy)
	copy(f.occBits.bits, c.occBits)
	copy(f.busyBits.bits, c.busyBits)
	f.gen++
}

// restoreMessage decodes pool entry id into m, rejecting fields that index
// outside the fabric.
func (f *Fabric) restoreMessage(r *snap.Reader, m *Message, id MsgID) {
	b := r.Bytes(msgSnapBytes)
	if b == nil {
		return
	}
	i32 := func(off int) int32 { return int32(binary.LittleEndian.Uint32(b[off:])) }
	i64 := func(off int) int64 { return int64(binary.LittleEndian.Uint64(b[off:])) }
	m.ID = id
	m.Src, m.Dst, m.Length = i32(0), i32(4), i32(8)
	m.HeadVC, m.TailVC = VCID(i32(12)), VCID(i32(16))
	m.Injected, m.Consumed = i32(20), i32(24)
	m.InjLink = LinkID(i32(28))
	m.Attempts, m.Retries = i32(32), i32(36)
	m.Phase = MsgPhase(b[40])
	m.Marked, m.TrueDeadlock = b[41]&1 != 0, b[41]&2 != 0
	m.GenTime, m.InjectTime, m.DeliverTime = i64(42), i64(50), i64(58)
	m.BlockedSince, m.LastSourceFlit, m.MarkTime = i64(66), i64(74), i64(82)
	m.Route = RouteMemo{}
	nodes, nVC := int32(f.Topo.Nodes()), VCID(len(f.VCs))
	switch {
	case m.Src < 0 || m.Src >= nodes || m.Dst < 0 || m.Dst >= nodes:
		r.Failf("router: snapshot message %d goes %d -> %d on a %d-node fabric", id, m.Src, m.Dst, nodes)
	case m.Length < 0 || m.Injected < 0 || m.Injected > m.Length || m.Consumed < 0 || m.Consumed > m.Length:
		r.Failf("router: snapshot message %d has %d flits, %d injected, %d consumed", id, m.Length, m.Injected, m.Consumed)
	case m.Phase > PhaseAborted || b[41] > 3 || m.Attempts < 0 || m.Retries < 0:
		r.Failf("router: snapshot message %d has phase %d, flags %#x, %d attempts, %d retries", id, m.Phase, b[41], m.Attempts, m.Retries)
	case m.HeadVC < NilVC || m.HeadVC >= nVC || m.TailVC < NilVC || m.TailVC >= nVC:
		r.Failf("router: snapshot message %d spans VCs %d..%d (fabric has %d)", id, m.TailVC, m.HeadVC, nVC)
	case m.InjLink < NilLink || int(m.InjLink) >= len(f.Links):
		r.Failf("router: snapshot message %d entered through link %d (fabric has %d)", id, m.InjLink, len(f.Links))
	}
}

// checkWorms is the whole-state half of RestoreSnapshot's validation: the
// occupied VCs must form one simple chain per message in the network, TailVC
// to front, holding the message's header VC if it still has one, and nothing
// else may hold a VC or sit on the free list. Everything the engine does to a
// worm (allocate from its head, release it from its tail, absorb it at its
// front) relies on exactly that.
func (f *Fabric) checkWorms(r *snap.Reader, occupied int) {
	walked := 0
	for _, m := range f.msgs {
		inNet := m.Length > 0 && (m.Phase == PhaseNetwork || m.Phase == PhaseRecovering)
		if !inNet {
			if m.HeadVC != NilVC || m.TailVC != NilVC {
				r.Failf("router: snapshot message %d is %s (%d flits) yet spans VCs %d..%d", m.ID, m.Phase, m.Length, m.TailVC, m.HeadVC)
				return
			}
			continue
		}
		// Along the worm: the header flit sits only in the header VC, the tail
		// flit only in the backmost VC and only once the source has sent it,
		// and the buffered flits are the ones injected and not yet consumed.
		headSeen := m.HeadVC == NilVC
		flits := int32(0)
		vc := m.TailVC
		for ; vc != NilVC && walked <= occupied; vc = f.VCs[vc].Next {
			v := &f.VCs[vc]
			switch {
			case v.Occupant != m.ID:
				r.Failf("router: snapshot message %d's worm runs through VC %d, held by message %d", m.ID, vc, v.Occupant)
			case v.HasHeader && (vc != m.HeadVC || v.Flits == 0):
				r.Failf("router: snapshot VC %d buffers message %d's header flit among %d flits; its header VC is %d", vc, m.ID, v.Flits, m.HeadVC)
			case v.HasTail != (vc == m.TailVC && m.Injected == m.Length) || (v.HasTail && v.Flits == 0):
				r.Failf("router: snapshot VC %d (%d flits, tail flit %v) on the worm of message %d, backmost VC %d, %d of %d flits injected",
					vc, v.Flits, v.HasTail, m.ID, m.TailVC, m.Injected, m.Length)
			}
			if r.Err() != nil {
				return
			}
			headSeen = headSeen || vc == m.HeadVC
			flits += v.Flits
			walked++
		}
		if m.TailVC == NilVC || !headSeen || walked > occupied {
			r.Failf("router: snapshot message %d's worm from VC %d does not reach its header VC %d", m.ID, m.TailVC, m.HeadVC)
			return
		}
		if flits != m.Injected-m.Consumed {
			r.Failf("router: snapshot message %d has %d flits buffered, %d injected and %d consumed", m.ID, flits, m.Injected, m.Consumed)
			return
		}
	}
	if walked != occupied {
		r.Failf("router: snapshot has %d occupied VCs, its worms hold %d", occupied, walked)
		return
	}
	f.freeSeen = append(f.freeSeen[:0], make([]bool, len(f.msgs))...)
	for _, id := range f.free {
		if m := f.msgs[id]; m.Length != 0 || m.Phase != PhaseQueued || f.freeSeen[id] {
			r.Failf("router: snapshot free list holds message %d, which is live or listed twice", id)
			return
		}
		f.freeSeen[id] = true
	}
}
