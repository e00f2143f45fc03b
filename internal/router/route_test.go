package router

import (
	"strings"
	"testing"
)

// TestRouteMaskMemo: the memo answers for exactly the (router, destination)
// pair it was filled for, and any other lookup — another router, a pooled
// MsgID reused for another destination, a hand-built zero-value message —
// recomputes. Every answer equals the topology's own.
func TestRouteMaskMemo(t *testing.T) {
	f := testFabric(t, 4, 2)
	check := func(m *Message, node int) {
		t.Helper()
		want := f.Topo.MinimalDirMask(node, int(m.Dst))
		if got := f.RouteMask(m, node); got != want {
			t.Fatalf("RouteMask(msg %d -> %d, node %d) = %#x, want %#x", m.ID, m.Dst, node, got, want)
		}
		if m.Route.At != int32(node)+1 || m.Route.Dst != m.Dst || m.Route.Mask != want {
			t.Fatalf("memo after lookup at node %d = %+v", node, m.Route)
		}
		if err := f.CheckRouteMemo(m); err != nil {
			t.Fatal(err)
		}
	}

	m := f.NewMessage(0, 10, 4, 0)
	if m.Route != (RouteMemo{}) {
		t.Fatalf("fresh message carries memo %+v", m.Route)
	}
	check(m, 0)
	check(m, 0) // a retry at the same router: answered from the memo
	check(m, 1) // the header hopped
	check(m, 0) // and came back (a re-queued message can revisit a router)

	// A pooled MsgID reused by a later message starts with an empty memo.
	id := m.ID
	f.FreeMessage(m)
	if m.Route != (RouteMemo{}) {
		t.Fatalf("freed message keeps memo %+v", m.Route)
	}
	m2 := f.NewMessage(3, 5, 4, 0)
	if m2.ID != id {
		t.Fatalf("pool handed out ID %d, want the freed %d", m2.ID, id)
	}
	if m2.Route != (RouteMemo{}) {
		t.Fatalf("reused message carries memo %+v", m2.Route)
	}
	check(m2, 0)

	// A hand-built zero-value message (destination 0) at router 0 and away
	// from it: the zero memo is empty, not "router -1".
	for _, node := range []int{0, 5, 15} {
		check(&Message{}, node)
	}
	// Changing the destination under a filled memo misses on the key.
	m2.Dst = 12
	check(m2, 0)
}

// TestCheckRouteMemo: the audit accepts an empty or correct memo and names
// the message of a corrupt one.
func TestCheckRouteMemo(t *testing.T) {
	f := testFabric(t, 4, 2)
	m := f.NewMessage(0, 10, 4, 0)
	if err := f.CheckRouteMemo(m); err != nil {
		t.Fatalf("empty memo: %v", err)
	}
	f.RouteMask(m, 0)
	m.Route.Mask ^= 1
	if err := f.CheckRouteMemo(m); err == nil || !strings.Contains(err.Error(), "message 0 caches minimal-direction mask") {
		t.Fatalf("flipped mask bit: audit error %v", err)
	}
	m.Route = RouteMemo{At: 99, Dst: 10}
	if err := f.CheckRouteMemo(m); err == nil || !strings.Contains(err.Error(), "outside the 16-node fabric") {
		t.Fatalf("out-of-range router: audit error %v", err)
	}
}
