package viz

import (
	"strings"
	"testing"

	"wormnet/internal/router"
	"wormnet/internal/topology"
)

func fabric(t *testing.T, k, n int) *router.Fabric {
	t.Helper()
	f, err := router.NewFabric(topology.New(k, n),
		router.Config{VCsPerLink: 2, BufFlits: 4, InjPorts: 1, DelPorts: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// worm places a message across the given links, header last.
func worm(t *testing.T, f *router.Fabric, links ...router.LinkID) *router.Message {
	t.Helper()
	m := f.NewMessage(int(f.Links[links[0]].Src), int(f.Links[links[len(links)-1]].Dst), 8, 0)
	m.Phase = router.PhaseNetwork
	prev := router.NilVC
	for _, l := range links {
		vc := f.FreeVC(l)
		f.Allocate(m, prev, vc)
		f.VCs[vc].Flits = 2
		prev = vc
	}
	m.HeadVC = prev
	f.VCs[prev].HasHeader = true
	f.VCs[f.Links[links[0]].FirstVC].HasTail = true
	m.Injected = 8
	return m
}

func TestSummarize(t *testing.T) {
	f := fabric(t, 4, 2)
	empty := Summarize(f)
	if empty.BusyVCs != 0 || empty.BusyNetLinks != 0 || empty.LiveMessages != 0 {
		t.Errorf("fresh fabric not empty: %+v", empty)
	}
	m := worm(t, f, f.NetLink(0, 0), f.NetLink(1, 0))
	f.VCs[m.HeadVC].Next = router.NilVC // header waiting
	m.Attempts = 1
	s := Summarize(f)
	if s.BusyVCs != 2 || s.BusyNetLinks != 2 || s.LiveMessages != 1 {
		t.Errorf("summary: %+v", s)
	}
	if s.BufferedFlits != 4 {
		t.Errorf("buffered flits %d", s.BufferedFlits)
	}
	if s.BlockedHeads != 1 {
		t.Errorf("blocked heads %d", s.BlockedHeads)
	}
	if !strings.Contains(s.String(), "2 busy VCs") {
		t.Errorf("String: %s", s)
	}
}

func TestHeatmap(t *testing.T) {
	f := fabric(t, 4, 2)
	hm := Heatmap(f)
	if strings.Count(hm, "\n") != 4 {
		t.Errorf("heatmap rows:\n%s", hm)
	}
	if !strings.Contains(hm, ".") {
		t.Error("idle nodes should render as dots")
	}
	worm(t, f, f.NetLink(0, 0))
	hm = Heatmap(f)
	if !strings.Contains(hm, "1") {
		t.Errorf("busy node not rendered:\n%s", hm)
	}
	// Non-2D fallback.
	f3 := fabric(t, 3, 3)
	if !strings.Contains(Heatmap(f3), "2-D") {
		t.Error("3-D fallback message missing")
	}
}
