package routing

import (
	"testing"
	"testing/quick"

	"wormnet/internal/router"
	"wormnet/internal/topology"
)

func fabric(t *testing.T, k, n, vcs int) *router.Fabric {
	t.Helper()
	f, err := router.NewFabric(topology.New(k, n),
		router.Config{VCsPerLink: vcs, BufFlits: 4, InjPorts: 1, DelPorts: 2})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func msgTo(f *router.Fabric, dst int) *router.Message {
	return f.NewMessage(0, dst, 16, 0)
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"adaptive":            "true-fully-adaptive",
		"tfa":                 "true-fully-adaptive",
		"true-fully-adaptive": "true-fully-adaptive",
		"dor":                 "dimension-order",
		"ecube":               "dimension-order",
		"dimension-order":     "dimension-order",
		"duato":               "duato-protocol",
		"duato-protocol":      "duato-protocol",
	} {
		alg, ok := ByName(name)
		if !ok || alg.Name() != want {
			t.Errorf("ByName(%q) = %v, %v", name, alg, ok)
		}
	}
	for _, name := range []string{"bogus", ""} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName(%q) resolved", name)
		}
	}
}

func TestAlgorithmProperties(t *testing.T) {
	for _, tc := range []struct {
		alg          Algorithm
		deadlockFree bool
		uniform      bool
		minVCs       int
	}{
		{TrueFullyAdaptive{}, false, true, 1},
		{DimensionOrder{}, true, false, 2},
		{DuatoProtocol{}, true, false, 3},
	} {
		if tc.alg.DeadlockFree() != tc.deadlockFree {
			t.Errorf("%s: DeadlockFree", tc.alg.Name())
		}
		if tc.alg.UniformVCs() != tc.uniform {
			t.Errorf("%s: UniformVCs", tc.alg.Name())
		}
		if tc.alg.MinVCs() != tc.minVCs {
			t.Errorf("%s: MinVCs", tc.alg.Name())
		}
	}
}

func TestAllAlgorithmsDeliveryCandidates(t *testing.T) {
	f := fabric(t, 4, 2, 3)
	for _, alg := range []Algorithm{TrueFullyAdaptive{}, DimensionOrder{}, DuatoProtocol{}} {
		m := msgTo(f, 5)
		cands := alg.Candidates(f, m, 5, nil)
		if len(cands) != 2 { // two delivery ports
			t.Errorf("%s: %d delivery candidates", alg.Name(), len(cands))
		}
		for _, vc := range cands {
			if f.Links[f.LinkOfVC(vc)].Kind != router.DeliveryLink {
				t.Errorf("%s: non-delivery candidate at destination", alg.Name())
			}
		}
	}
}

func TestTFACandidatesAreAllMinimalVCs(t *testing.T) {
	f := fabric(t, 4, 2, 3)
	dst := f.Topo.ID([]int{1, 1})
	m := msgTo(f, dst)
	cands := TrueFullyAdaptive{}.Candidates(f, m, 0, nil)
	// Two minimal directions x 3 VCs.
	if len(cands) != 6 {
		t.Fatalf("candidates = %d, want 6", len(cands))
	}
}

// TestDORSingleCandidateAndProgress: dimension order always offers exactly
// one VC, on a minimal link in the lowest unresolved dimension.
func TestDORSingleCandidateAndProgress(t *testing.T) {
	f := fabric(t, 5, 3, 2)
	tp := f.Topo
	nodes := tp.Nodes()
	err := quick.Check(func(nRaw, dRaw uint16) bool {
		node, dst := int(nRaw)%nodes, int(dRaw)%nodes
		if node == dst {
			return true
		}
		m := msgTo(f, dst)
		cands := DimensionOrder{}.Candidates(f, m, node, nil)
		if len(cands) != 1 {
			return false
		}
		link := &f.Links[f.LinkOfVC(cands[0])]
		// The hop must reduce distance.
		if tp.Distance(int(link.Dst), dst) != tp.Distance(node, dst)-1 {
			return false
		}
		// And it must be in the lowest unresolved dimension.
		for dim := 0; dim < tp.N(); dim++ {
			if tp.Coord(node)[dim] != tp.Coord(dst)[dim] {
				return link.Dir.Dim() == dim
			}
		}
		return false
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Error(err)
	}
}

// TestDORRouteTermination: following DOR hops always reaches the
// destination in exactly Distance steps.
func TestDORRouteTermination(t *testing.T) {
	f := fabric(t, 8, 2, 2)
	tp := f.Topo
	for _, pair := range [][2]int{{0, 63}, {5, 5 + 8*3}, {7, 56}, {0, 36}, {63, 0}} {
		node, dst := pair[0], pair[1]
		m := msgTo(f, dst)
		steps := 0
		for node != dst {
			cands := DimensionOrder{}.Candidates(f, m, node, nil)
			if len(cands) != 1 {
				t.Fatalf("no candidate at %d", node)
			}
			node = int(f.Links[f.LinkOfVC(cands[0])].Dst)
			steps++
			if steps > 32 {
				t.Fatal("route does not terminate")
			}
		}
		if steps != tp.Distance(pair[0], dst) {
			t.Errorf("%v: %d steps, want %d", pair, steps, tp.Distance(pair[0], dst))
		}
	}
}

// TestDORVCClassBreaksWrapCycle: on a ring, hops before the wraparound use
// class 0 and hops after it use class 1.
func TestDORVCClassBreaksWrapCycle(t *testing.T) {
	f := fabric(t, 8, 1, 2)
	m := msgTo(f, 2) // 6 -> 7 -> 0 -> 1 -> 2 travels "+", wrapping at 7->0
	classOf := func(node int) int {
		cands := DimensionOrder{}.Candidates(f, m, node, nil)
		if len(cands) != 1 {
			t.Fatalf("candidates at %d: %v", node, cands)
		}
		vc := cands[0]
		return int(vc - f.Links[f.LinkOfVC(vc)].FirstVC)
	}
	// Before the wrap (still above dst): class 0.
	if classOf(6) != 0 || classOf(7) != 0 {
		t.Error("pre-wrap hops must use class 0")
	}
	// After the wrap: class 1.
	if classOf(0) != 1 || classOf(1) != 1 {
		t.Error("post-wrap hops must use class 1")
	}
}

// TestDuatoCandidates: adaptive VCs (2..V-1) of all minimal links plus
// exactly one escape VC.
func TestDuatoCandidates(t *testing.T) {
	f := fabric(t, 4, 2, 3)
	dst := f.Topo.ID([]int{1, 1})
	m := msgTo(f, dst)
	cands := DuatoProtocol{}.Candidates(f, m, 0, nil)
	// Two minimal links x 1 adaptive VC + 1 escape VC = 3.
	if len(cands) != 3 {
		t.Fatalf("candidates = %v", cands)
	}
	adaptive := 0
	escape := 0
	for _, vc := range cands {
		link := &f.Links[f.LinkOfVC(vc)]
		idx := int(vc - link.FirstVC)
		if idx >= 2 {
			adaptive++
		} else {
			escape++
		}
	}
	if adaptive != 2 || escape != 1 {
		t.Errorf("adaptive=%d escape=%d", adaptive, escape)
	}
}

// TestDuatoEscapeMatchesDOR: the escape candidate is exactly the DOR hop.
func TestDuatoEscapeMatchesDOR(t *testing.T) {
	f := fabric(t, 8, 3, 3)
	err := quick.Check(func(nRaw, dRaw uint16) bool {
		node, dst := int(nRaw)%512, int(dRaw)%512
		if node == dst {
			return true
		}
		m := msgTo(f, dst)
		duato := DuatoProtocol{}.Candidates(f, m, node, nil)
		dor := DimensionOrder{}.Candidates(f, m, node, nil)
		if len(dor) != 1 {
			return false
		}
		// The DOR VC must appear among Duato's candidates.
		for _, vc := range duato {
			if vc == dor[0] {
				return true
			}
		}
		return false
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

// TestAllCandidatesAreMinimal: no algorithm ever proposes a non-minimal
// network hop.
func TestAllCandidatesAreMinimal(t *testing.T) {
	f := fabric(t, 6, 2, 3)
	tp := f.Topo
	nodes := tp.Nodes()
	for _, alg := range []Algorithm{TrueFullyAdaptive{}, DimensionOrder{}, DuatoProtocol{}} {
		err := quick.Check(func(nRaw, dRaw uint16) bool {
			node, dst := int(nRaw)%nodes, int(dRaw)%nodes
			if node == dst {
				return true
			}
			m := msgTo(f, dst)
			for _, vc := range alg.Candidates(f, m, node, nil) {
				link := &f.Links[f.LinkOfVC(vc)]
				if link.Kind != router.NetworkLink {
					return false
				}
				if tp.Distance(int(link.Dst), dst) != tp.Distance(node, dst)-1 {
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 400})
		if err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}
