package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/probe"
	"wormnet/internal/recovery"
	"wormnet/internal/router"
)

// freshCandidates is what true fully adaptive routing offers m's header at
// node, computed from the topology alone — no memo.
func freshCandidates(f *router.Fabric, m *router.Message, node int) []router.VCID {
	var links []router.LinkID
	if node == int(m.Dst) {
		for p := 0; p < f.Cfg.DelPorts; p++ {
			links = append(links, f.DelLink(node, p))
		}
	}
	for _, d := range f.Topo.MinimalDirections(node, int(m.Dst), nil) {
		links = append(links, f.NetLink(node, d))
	}
	var vcs []router.VCID
	for _, l := range links {
		for v := 0; v < int(f.Links[l].NumVC); v++ {
			vcs = append(vcs, f.Links[l].FirstVC+router.VCID(v))
		}
	}
	return vcs
}

// headerNode returns the router at which m's header waits to be routed, if
// it is waiting anywhere.
func headerNode(f *router.Fabric, m *router.Message) (int, bool) {
	if m.Phase != router.PhaseNetwork || m.HeadVC == router.NilVC || !f.HeaderBlocked(m.HeadVC) {
		return 0, false
	}
	return f.RouterOf(f.LinkOfVC(m.HeadVC)), true
}

// checkWaitingHeaders asserts, for every header waiting at a router, that
// the routing algorithm's (memo-backed) candidates equal a fresh computation.
// It returns how many headers it checked.
func checkWaitingHeaders(t *testing.T, e *Engine) int {
	t.Helper()
	f := e.Fabric()
	checked := 0
	for _, list := range [][]router.MsgID{e.pending, e.pendingNew} {
		for _, id := range list {
			m := f.Msg(id)
			node, ok := headerNode(f, m)
			if !ok {
				continue
			}
			got := e.alg.Candidates(f, m, node, nil)
			if want := freshCandidates(f, m, node); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: msg %d -> %d at node %d (memo %+v): candidates %v, fresh computation %v",
					e.Now(), m.ID, m.Dst, node, m.Route, got, want)
			}
			checked++
		}
	}
	return checked
}

// TestRouteMemoOncePerHop: a header crossing an empty network fills its memo
// once at every router it is routed at, and each fill is right.
func TestRouteMemoOncePerHop(t *testing.T) {
	e := quiescent(t, 4, 2)
	src, dst := 0, e.Topology().ID([]int{2, 1})
	m := e.InjectMessage(src, dst, 6)
	var fills []router.RouteMemo
	for i := 0; i < 100 && m.Phase != router.PhaseDelivered; i++ {
		stepN(t, e, 1)
		checkWaitingHeaders(t, e)
		if m.Route.At != 0 && (len(fills) == 0 || fills[len(fills)-1] != m.Route) {
			fills = append(fills, m.Route)
		}
	}
	if m.Phase != router.PhaseDelivered {
		t.Fatalf("message not delivered: %v", m)
	}
	// Delivery candidates need no geometry, so the destination router never
	// fills the memo: one fill per network hop.
	if want := e.Topology().Distance(src, dst); len(fills) != want {
		t.Fatalf("memo filled %d times (%+v), want once per hop = %d", len(fills), fills, want)
	}
	for i, r := range fills {
		at, want := int(r.At-1), e.Topology().Distance(src, dst)-i
		if int(r.Dst) != dst || e.Topology().Distance(at, dst) != want || (i == 0 && at != src) {
			t.Fatalf("fill %d = %+v, want a router %d hops from destination %d", i, r, want, dst)
		}
	}
}

// stormConfig is satConfig with the window open from cycle 0 and pooled
// messages, so re-queues and MsgID reuse are counted and exercised.
func stormConfig() Config {
	cfg := satConfig()
	cfg.Warmup, cfg.Measure = 0, 1<<40
	cfg.OracleEvery = 1
	return cfg
}

// TestRouteMemoLifecycleUnderRecovery drives a deadlock storm under both
// recovery styles and the CMH prober, with the Debug
// audit on, and checks every waiting header every cycle. The storm makes
// messages re-queue at the router that absorbed them (progressive) or at
// their source (regressive) and recycles pooled MsgIDs, so a memo keyed on
// anything less than (router, destination), or one that survived the pool,
// would offer wrong candidates here.
func TestRouteMemoLifecycleUnderRecovery(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"ndm-progressive", func(c *Config) {}},
		{"ndm-regressive", func(c *Config) { c.Recovery = recovery.Regressive }},
		{"cmh", func(c *Config) {
			c.Detector = func(f *router.Fabric) detect.Detector {
				return probe.New(f, probe.Config{InitDelay: 8, MaxHops: 64})
			}
		}},
	}
	for _, tc := range cases {
		cfg := stormConfig()
		tc.mod(&cfg)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		born := map[router.MsgID]int64{} // GenTime of each MsgID's current holder
		checked, reused := 0, 0
		for i := 0; i < 1500; i++ {
			stepN(t, e, 1)
			checked += checkWaitingHeaders(t, e)
			e.Fabric().LiveMessages(func(m *router.Message) {
				if gen, ok := born[m.ID]; ok && gen != m.GenTime {
					reused++
				}
				born[m.ID] = m.GenTime
			})
		}
		if st := e.Stats(); checked == 0 || st.Reinjected == 0 || reused == 0 {
			t.Errorf("%s: checked %d headers, %d re-queues, %d MsgID reuses: the run did not exercise the memo's lifecycle",
				tc.name, checked, st.Reinjected, reused)
		}
	}
}

// TestRouteMemoAuditCatchesCorruption: with one blocked header's cached mask
// corrupted, the Debug audit — called directly and through Step — fails and
// names the message.
func TestRouteMemoAuditCatchesCorruption(t *testing.T) {
	e, err := New(stormConfig())
	if err != nil {
		t.Fatal(err)
	}
	var victim *router.Message
	for i := 0; i < 500 && victim == nil; i++ {
		stepN(t, e, 1)
		for _, id := range e.pending {
			if m := e.Fabric().Msg(id); m.Attempts > 1 && m.Route.At != 0 {
				victim = m
				break
			}
		}
	}
	if victim == nil {
		t.Fatal("no blocked header with a filled memo in 500 storm cycles")
	}
	if err := e.auditRouteMemos(); err != nil {
		t.Fatalf("clean run fails the audit: %v", err)
	}
	// Whatever the wrong mask makes the header do this cycle, the memo is
	// rewritten only by a lookup at another router, which is at least two
	// cycles away: the corruption is still there when Step audits.
	victim.Route.Mask ^= 1
	want := fmt.Sprintf("message %d caches minimal-direction mask", victim.ID)
	if err := e.auditRouteMemos(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("audit error %v, want one containing %q", err, want)
	}
	if err := e.Step(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Step error %v, want the audit's, containing %q", err, want)
	}

	// The one-writer rule's precondition is audited too.
	e2, err := New(stormConfig())
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, e2, 50)
	if len(e2.pending) == 0 {
		t.Fatal("no pending headers after 50 storm cycles")
	}
	e2.pending = append(e2.pending, e2.pending[0])
	if err := e2.auditRouteMemos(); err == nil || !strings.Contains(err.Error(), "is pending twice") {
		t.Fatalf("duplicate pending entry: audit error %v", err)
	}
}
