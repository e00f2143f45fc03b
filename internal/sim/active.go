package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"wormnet/internal/router"
)

// Active-set bookkeeping for the cycle kernel (see stages.go): the
// nonempty-source-queue bitmap and the generator arrival heap and deferred
// lists, plus the Debug-mode audit that cross-checks every set against a full
// rescan.

// queuePush pushes id onto node's source queue, setting the node's bit in
// the nonempty-queue bitmap. All engine code must enqueue through this
// wrapper (never q.Push directly) or the admit stage's active set goes
// stale.
func (e *Engine) queuePush(node int, id router.MsgID) {
	e.neBits[node>>6] |= 1 << (node & 63)
	e.queues[node].Push(id)
}

// queueDrained clears node's bit in the nonempty-queue bitmap after the
// admit stage emptied its queue.
func (e *Engine) queueDrained(node int) {
	e.neBits[node>>6] &^= 1 << (node & 63)
}

// genLess orders the generator heap by (due, node): the earliest arrival
// first, ties broken by node so that equal-due pops come out node-ascending
// — which is what keeps arrivals in canonical node order.
func (e *Engine) genLess(a, b int32) bool {
	da, db := e.genDue[a], e.genDue[b]
	return da < db || (da == db && a < b)
}

// heapPush adds node to the arrival heap.
func (e *Engine) heapPush(node int32) {
	h := append(e.genHeap, node)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.genLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.genHeap = h
}

// heapPop removes and returns the earliest-due node from the arrival heap.
func (e *Engine) heapPop() int32 {
	h := e.genHeap
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
	e.genHeap = h
	return top
}

// clearListed returns e.listed resized to n zero entries, growing it only
// when it is too short.
func (e *Engine) clearListed(n int) []uint8 {
	e.listed = slices.Grow(e.listed[:0], n)[:n]
	clear(e.listed)
	return e.listed
}

// auditActiveSets cross-checks every active set against a full rescan of
// the underlying state. It runs at the end of Step in Debug mode (next to
// Fabric.CheckInvariants). It allocates nothing once warm: every model
// checker step runs it.
func (e *Engine) auditActiveSets() error {
	// Nonempty-queue bitmap: bit set if and only if the queue has entries.
	for node := range e.queues {
		bit := e.neBits[node>>6]&(1<<(node&63)) != 0
		if bit != (e.queues[node].Len() > 0) {
			return fmt.Errorf("sim: node %d nonempty-queue bit %v, queue length %d", node, bit, e.queues[node].Len())
		}
	}

	// Generator arrival heap and deferred lists: entries scheduled,
	// heap-ordered, no duplicates, deferred nodes due exactly next cycle and
	// absent from the heap, and heap plus deferrals covering exactly the
	// nodes with a live countdown.
	seen := e.clearListed(len(e.genDue))
	for i, n32 := range e.genHeap {
		node := int(n32)
		if e.genDue[node] < 0 {
			return fmt.Errorf("sim: node %d heaped with no scheduled arrival", node)
		}
		if seen[n32] != 0 {
			return fmt.Errorf("sim: node %d heaped twice", node)
		}
		seen[n32] = 1
		if i > 0 {
			p := (i - 1) / 2
			if e.genLess(n32, e.genHeap[p]) {
				return fmt.Errorf("sim: arrival heap violates heap order at index %d", i)
			}
		}
	}
	if len(e.genDefB) != 0 {
		return fmt.Errorf("sim: deferred-arrival fill buffer not swapped after generate")
	}
	for _, n32 := range e.genDefA {
		node := int(n32)
		// A deferred node is due at the next generate stage: now+1 when
		// the audit runs inside Step (after this cycle's generate, before
		// the cycle counter advances), now when a test invokes it between
		// Steps.
		if e.genDue[node] != e.now+1 && e.genDue[node] != e.now {
			return fmt.Errorf("sim: node %d deferred but due cycle %d (now %d)", node, e.genDue[node], e.now)
		}
		if seen[n32] != 0 {
			return fmt.Errorf("sim: node %d both heaped and deferred", node)
		}
		seen[n32] = 1
	}
	scheduled := 0
	for node := range e.genDue {
		if e.genDue[node] >= 0 {
			scheduled++
		}
	}
	if tracked := len(e.genHeap) + len(e.genDefA); tracked != scheduled {
		return fmt.Errorf("sim: arrival heap and deferred list track %d nodes, %d have scheduled arrivals", tracked, scheduled)
	}

	// The transmitted bitmap holds exactly the links on the transmitted
	// list: transferDecide clears the bits it finds listed and nothing else,
	// so a bit set off the list would stay set for good.
	listed := 0
	for _, l := range e.txLinks {
		if !e.transmitted[l] {
			return fmt.Errorf("sim: link %d on the transmitted list with its transmitted bit clear", l)
		}
		listed++
	}
	for _, tx := range e.transmitted {
		if tx {
			listed--
		}
	}
	if listed != 0 {
		return fmt.Errorf("sim: transmitted bitmap and the transmitted list differ by %d links", -listed)
	}

	// Feeder rows: whatever auditFeedRows found at arbitration, and every
	// count back at zero — a leftover one means the active-link key
	// collection missed a target. No input channel is still marked used: a
	// mark that survived the cycle would bar the input in the next one.
	if e.feedErr != nil {
		return e.feedErr
	}
	for l, n := range e.feedN {
		if n != 0 {
			return fmt.Errorf("sim: feeder row for link %d holds %d entries after transfer", l, n)
		}
		if e.inputUsed[l] {
			return fmt.Errorf("sim: input link %d is still marked used after transfer", l)
		}
	}
	return nil
}

// auditFeedRows is the half of the audit that has to run inside the transfer
// stage (Debug only), between bucketing and arbitration, while the rows are
// filled: every active link's row must be strictly ascending — arbitration
// takes that order as given. The first failure is kept in e.feedErr for
// auditActiveSets to report at the end of the cycle.
func (e *Engine) auditFeedRows() {
	for w, word := range e.keyBits {
		for ; word != 0; word &= word - 1 {
			tl := e.keyLink[w<<6+bits.TrailingZeros64(word)]
			row := e.feed[int(tl)*e.feedStride:][:e.feedN[tl]]
			for i := 1; i < len(row) && e.feedErr == nil; i++ {
				if row[i-1] >= row[i] {
					e.feedErr = fmt.Errorf("sim: feeder row for link %d is not ascending: %v", tl, row)
				}
			}
		}
	}
}
