package sim

import (
	"fmt"
	"math/bits"

	"wormnet/internal/router"
)

// Active-set bookkeeping for the cycle kernel (see shard.go): the
// per-shard nonempty-source-queue bitmaps and the per-shard generator
// arrival heaps and deferred lists, plus the Debug-mode audit that
// cross-checks every set against a full rescan.
//
// Mutation discipline: queue pushes happen only on the serial spine
// (commitGenerate, InjectMessage, requeue via recovery and fault injection),
// so setting a node's bit is race-free there; queue pops happen only in
// admitShard, which is parallel but only ever drains queues of its own
// shard's nodes, so clearing is confined to the shard's own (separately
// allocated) bitmap. The generator heaps and deferred lists are touched
// only by generateShard, each shard on its own.

// queuePush pushes id onto node's source queue, setting the node's bit in
// its shard's nonempty-queue bitmap. All engine code must enqueue through
// this wrapper (never q.Push directly) or the admit stage's active set goes
// stale.
func (e *Engine) queuePush(node int, id router.MsgID) {
	s := e.part.Of(node)
	rel := node - e.shards[s].lo
	e.neBits[s][rel>>6] |= 1 << (rel & 63)
	e.queues[node].Push(id)
}

// queueDrained clears node's bit in its shard's nonempty-queue bitmap after
// the admit stage emptied its queue.
func (e *Engine) queueDrained(node int) {
	s := e.part.Of(node)
	rel := node - e.shards[s].lo
	e.neBits[s][rel>>6] &^= 1 << (rel & 63)
}

// genLess orders the generator heap by (due, node): the earliest arrival
// first, ties broken by node so that equal-due pops come out node-ascending
// — which is what keeps the gens record list in canonical node order.
func (e *Engine) genLess(a, b int32) bool {
	da, db := e.genDue[a], e.genDue[b]
	return da < db || (da == db && a < b)
}

// heapPush adds node to shard sh's arrival heap.
func (e *Engine) heapPush(sh *shardState, node int32) {
	h := append(sh.genHeap, node)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.genLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	sh.genHeap = h
}

// heapPop removes and returns the earliest-due node from shard sh's heap.
func (e *Engine) heapPop(sh *shardState) int32 {
	h := sh.genHeap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && e.genLess(h[l], h[min]) {
			min = l
		}
		if r < n && e.genLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	sh.genHeap = h
	return top
}

// auditActiveSets cross-checks every active set against a full rescan of
// the underlying state. It runs at the end of Step in Debug mode (next to
// Fabric.CheckInvariants). Allocation is acceptable here; Debug is
// documented slow.
func (e *Engine) auditActiveSets() error {
	// Nonempty-queue bitmaps: bit set if and only if the queue has entries.
	for s := range e.shards {
		sh := &e.shards[s]
		for node := sh.lo; node < sh.hi; node++ {
			rel := node - sh.lo
			bit := e.neBits[s][rel>>6]&(1<<(rel&63)) != 0
			if bit != (e.queues[node].Len() > 0) {
				return fmt.Errorf("sim: node %d nonempty-queue bit %v, queue length %d", node, bit, e.queues[node].Len())
			}
		}
	}

	// Generator arrival heaps and deferred lists (skip-ahead processes
	// only): entries in range and scheduled, heap-ordered, no duplicates,
	// deferred nodes due exactly next cycle and absent from the heap, and
	// heap plus deferrals covering exactly the nodes with a live countdown.
	if e.genSkip != nil {
		seen := make(map[int32]bool)
		tracked := 0
		for s := range e.shards {
			sh := &e.shards[s]
			for i, n32 := range sh.genHeap {
				node := int(n32)
				if node < sh.lo || node >= sh.hi {
					return fmt.Errorf("sim: node %d in shard %d arrival heap, owns [%d,%d)", node, s, sh.lo, sh.hi)
				}
				if e.genDue[node] < 0 {
					return fmt.Errorf("sim: node %d heaped with no scheduled arrival", node)
				}
				if seen[n32] {
					return fmt.Errorf("sim: node %d heaped twice", node)
				}
				seen[n32] = true
				if i > 0 {
					p := (i - 1) / 2
					if e.genLess(n32, sh.genHeap[p]) {
						return fmt.Errorf("sim: shard %d arrival heap violates heap order at index %d", s, i)
					}
				}
			}
			if len(sh.genDefB) != 0 {
				return fmt.Errorf("sim: shard %d deferred-arrival fill buffer not swapped after generate", s)
			}
			for _, n32 := range sh.genDefA {
				node := int(n32)
				if node < sh.lo || node >= sh.hi {
					return fmt.Errorf("sim: node %d in shard %d deferred-arrival list, owns [%d,%d)", node, s, sh.lo, sh.hi)
				}
				// A deferred node is due at the next generate stage: now+1
				// when the audit runs inside Step (after this cycle's
				// generate, before the cycle counter advances), now when a
				// test invokes it between Steps.
				if e.genDue[node] != e.now+1 && e.genDue[node] != e.now {
					return fmt.Errorf("sim: node %d deferred but due cycle %d (now %d)", node, e.genDue[node], e.now)
				}
				if seen[n32] {
					return fmt.Errorf("sim: node %d both heaped and deferred", node)
				}
				seen[n32] = true
			}
			tracked += len(sh.genHeap) + len(sh.genDefA)
		}
		scheduled := 0
		for node := range e.genDue {
			if e.genDue[node] >= 0 {
				scheduled++
			}
		}
		if tracked != scheduled {
			return fmt.Errorf("sim: heaps and deferred lists track %d nodes, %d have scheduled arrivals", tracked, scheduled)
		}
	}

	// The transmitted bitmap holds exactly the links on the shards'
	// transmitted lists: transferDecide clears the bits it finds listed and
	// nothing else, so a bit set off the lists would stay set for good.
	listed := 0
	for s := range e.shards {
		for _, l := range e.shards[s].txLinks {
			if !e.transmitted[l] {
				return fmt.Errorf("sim: link %d on shard %d's transmitted list with its transmitted bit clear", l, s)
			}
			listed++
		}
	}
	for _, tx := range e.transmitted {
		if tx {
			listed--
		}
	}
	if listed != 0 {
		return fmt.Errorf("sim: transmitted bitmap and the shards' transmitted lists differ by %d links", -listed)
	}

	// Feeder rows: whatever auditFeedRows found at arbitration, and every
	// count back at zero — a leftover one means the active-link key
	// collection missed a target.
	for s := range e.shards {
		if err := e.shards[s].feedErr; err != nil {
			return err
		}
	}
	for l, n := range e.feedN {
		if n != 0 {
			return fmt.Errorf("sim: feeder row for link %d holds %d entries after transfer", l, n)
		}
	}
	return nil
}

// auditFeedRows is the half of the audit that has to run inside the transfer
// stage (Debug only), between bucketing and arbitration, while the rows are
// filled: every active link's row must be strictly ascending — arbitration
// takes that order as given. The first failure is kept in sh.feedErr for
// auditActiveSets to report at the end of the cycle.
func (e *Engine) auditFeedRows(sh *shardState) {
	relBase := sh.lo * (e.topo.Degree() + e.cfg.Router.DelPorts)
	for w, word := range sh.keyBits {
		for ; word != 0; word &= word - 1 {
			tl := e.keyLink[relBase+w<<6+bits.TrailingZeros64(word)]
			row := e.feed[int(tl)*e.feedStride:][:e.feedN[tl]]
			for i := 1; i < len(row) && sh.feedErr == nil; i++ {
				if row[i-1] >= row[i] {
					sh.feedErr = fmt.Errorf("sim: feeder row for link %d is not ascending: %v", tl, row)
				}
			}
		}
	}
}
