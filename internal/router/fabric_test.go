package router

import (
	"fmt"
	"strings"
	"testing"

	"wormnet/internal/rng"
	"wormnet/internal/topology"
)

func testFabric(t *testing.T, k, n int) *Fabric {
	t.Helper()
	f, err := NewFabric(topology.New(k, n), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigValidation(t *testing.T) {
	tp := topology.New(4, 2)
	bad := []Config{
		{VCsPerLink: 0, BufFlits: 4, InjPorts: 4, DelPorts: 4},
		{VCsPerLink: MaxVCsPerLink + 1, BufFlits: 4, InjPorts: 4, DelPorts: 4},
		{VCsPerLink: 3, BufFlits: 0, InjPorts: 4, DelPorts: 4},
		{VCsPerLink: 3, BufFlits: 4, InjPorts: 0, DelPorts: 4},
		{VCsPerLink: 3, BufFlits: 4, InjPorts: 4, DelPorts: 0},
	}
	for i, cfg := range bad {
		if _, err := NewFabric(tp, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	// The widest fabric the feeder counts can hold is accepted, and a refusal
	// names the field.
	if _, err := NewFabric(tp, Config{VCsPerLink: MaxVCsPerLink, BufFlits: 4, InjPorts: 4, DelPorts: 4}); err != nil {
		t.Errorf("VCsPerLink %d refused: %v", MaxVCsPerLink, err)
	}
	if _, err := NewFabric(tp, bad[1]); err == nil || !strings.Contains(err.Error(), "VCsPerLink") {
		t.Errorf("VCsPerLink %d: error %v, want one naming VCsPerLink", bad[1].VCsPerLink, err)
	}
}

func TestFabricLayout(t *testing.T) {
	f := testFabric(t, 8, 3)
	nodes, deg := 512, 6
	if got, want := f.NumNetLinks(), nodes*deg; got != want {
		t.Fatalf("NumNetLinks = %d, want %d", got, want)
	}
	if got, want := f.NumLinks(), nodes*deg+nodes*4+nodes*4; got != want {
		t.Fatalf("NumLinks = %d, want %d", got, want)
	}
	// Every network link: Src's neighbor in Dir is Dst; buffers have 3 VCs.
	for i := 0; i < f.NumNetLinks(); i++ {
		l := &f.Links[i]
		if l.Kind != NetworkLink {
			t.Fatalf("link %d kind %v", i, l.Kind)
		}
		if got := f.Topo.Neighbor(int(l.Src), l.Dir); got != int(l.Dst) {
			t.Fatalf("link %d: neighbor(%d,%v) = %d, want %d", i, l.Src, l.Dir, got, l.Dst)
		}
		if l.NumVC != 3 {
			t.Fatalf("network link with %d VCs", l.NumVC)
		}
	}
	// Injection and delivery ports have a single VC and correct kinds.
	for node := 0; node < nodes; node++ {
		for p := 0; p < 4; p++ {
			inj := &f.Links[f.InjLink(node, p)]
			if inj.Kind != InjectionLink || inj.NumVC != 1 || int(inj.Dst) != node || inj.Src != -1 {
				t.Fatalf("bad injection link %+v", inj)
			}
			del := &f.Links[f.DelLink(node, p)]
			if del.Kind != DeliveryLink || del.NumVC != 1 || int(del.Src) != node {
				t.Fatalf("bad delivery link %+v", del)
			}
		}
	}
}

func TestVCOwnership(t *testing.T) {
	f := testFabric(t, 4, 2)
	for i := range f.VCs {
		l := f.VCs[i].Link
		link := &f.Links[l]
		id := VCID(i)
		if id < link.FirstVC || id >= link.FirstVC+VCID(link.NumVC) {
			t.Fatalf("VC %d claims link %d but is outside its range", i, l)
		}
	}
}

func TestIsMonitored(t *testing.T) {
	f := testFabric(t, 4, 2)
	if !f.IsMonitored(f.NetLink(0, 0)) {
		t.Error("network link not monitored")
	}
	if f.IsMonitored(f.InjLink(0, 0)) {
		t.Error("injection link monitored")
	}
	if !f.IsMonitored(f.DelLink(0, 0)) {
		t.Error("delivery link not monitored")
	}
}

func TestRouterOf(t *testing.T) {
	f := testFabric(t, 4, 2)
	l := f.NetLink(5, topology.Direction(0))
	if got := f.RouterOf(l); got != f.Topo.Neighbor(5, 0) {
		t.Errorf("RouterOf(net) = %d", got)
	}
	if got := f.RouterOf(f.InjLink(7, 2)); got != 7 {
		t.Errorf("RouterOf(inj) = %d", got)
	}
}

func TestFreeAndBusyVCs(t *testing.T) {
	f := testFabric(t, 4, 2)
	l := f.NetLink(0, 0)
	if f.BusyVCs(l) != 0 || f.AllVCsBusy(l) {
		t.Fatal("fresh link not free")
	}
	for i := 0; i < 3; i++ {
		vc := f.FreeVC(l)
		if vc == NilVC {
			t.Fatalf("no free VC at step %d", i)
		}
		f.Allocate(f.NewMessage(0, 5, 16, 0), NilVC, vc)
		if got := f.BusyVCs(l); got != i+1 {
			t.Fatalf("BusyVCs = %d, want %d", got, i+1)
		}
	}
	if !f.AllVCsBusy(l) || f.FreeVC(l) != NilVC {
		t.Fatal("full link reports free capacity")
	}
}

func TestBusyNetOutputVCs(t *testing.T) {
	f := testFabric(t, 4, 2)
	if f.BusyNetOutputVCs(0) != 0 {
		t.Fatal("fresh node has busy outputs")
	}
	f.Allocate(f.NewMessage(0, 5, 16, 0), NilVC, f.Links[f.NetLink(0, 1)].FirstVC)
	f.Allocate(f.NewMessage(0, 5, 16, 0), NilVC, f.Links[f.NetLink(0, 3)].FirstVC)
	if got := f.BusyNetOutputVCs(0); got != 2 {
		t.Fatalf("BusyNetOutputVCs = %d, want 2", got)
	}
	// Injection occupancy must not count.
	f.Allocate(f.NewMessage(0, 5, 16, 0), NilVC, f.Links[f.InjLink(0, 0)].FirstVC)
	if got := f.BusyNetOutputVCs(0); got != 2 {
		t.Fatalf("BusyNetOutputVCs counted injection: %d", got)
	}
}

// buildWorm injects a message and walks it hop by hop along a fixed path,
// returning the chain of VCs. Used by movement tests.
func buildWorm(t *testing.T, f *Fabric, m *Message, path []LinkID) []VCID {
	t.Helper()
	chain := make([]VCID, 0, len(path)+1)
	inj := f.Links[f.InjLink(int(m.Src), 0)].FirstVC
	f.Allocate(m, NilVC, inj)
	m.HeadVC = inj
	chain = append(chain, inj)
	for _, l := range path {
		vc := f.FreeVC(l)
		if vc == NilVC {
			t.Fatalf("no free VC on link %d", l)
		}
		f.Allocate(m, chain[len(chain)-1], vc)
		chain = append(chain, vc)
	}
	return chain
}

func TestMoveFlitHeaderAndTail(t *testing.T) {
	f := testFabric(t, 4, 2)
	m := f.NewMessage(0, 1, 3, 0) // 3-flit message
	path := []LinkID{f.NetLink(0, 0)}
	chain := buildWorm(t, f, m, path)
	src, dst := chain[0], chain[1]
	// Put all three flits in the injection buffer.
	f.VCs[src].Flits = 3
	f.VCs[src].HasHeader = true
	f.VCs[src].HasTail = true

	h, tl := f.MoveFlit(src)
	if !h || tl {
		t.Fatalf("first move: header=%v tail=%v", h, tl)
	}
	if f.VCs[src].HasHeader || !f.VCs[dst].HasHeader {
		t.Fatal("header bit did not move")
	}
	h, tl = f.MoveFlit(src)
	if h || tl {
		t.Fatalf("second move: header=%v tail=%v", h, tl)
	}
	h, tl = f.MoveFlit(src)
	if h || !tl {
		t.Fatalf("third move: header=%v tail=%v", h, tl)
	}
	// Tail passed: the source VC must be fully released.
	if f.VCs[src].Occupant != NilMsg || f.VCs[src].Flits != 0 {
		t.Fatalf("source VC not released: %+v", f.VCs[src])
	}
	if f.VCs[dst].Flits != 3 || !f.VCs[dst].HasTail || !f.VCs[dst].HasHeader {
		t.Fatalf("destination VC wrong: %+v", f.VCs[dst])
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveFlitSingleFlitMessage(t *testing.T) {
	f := testFabric(t, 4, 2)
	m := f.NewMessage(0, 1, 1, 0)
	chain := buildWorm(t, f, m, []LinkID{f.NetLink(0, 0)})
	f.VCs[chain[0]].Flits = 1
	f.VCs[chain[0]].HasHeader = true
	f.VCs[chain[0]].HasTail = true
	h, tl := f.MoveFlit(chain[0])
	if !h || !tl {
		t.Fatalf("single-flit move: header=%v tail=%v", h, tl)
	}
}

func TestMoveFlitPanics(t *testing.T) {
	f := testFabric(t, 4, 2)
	m := f.NewMessage(0, 1, 4, 0)
	chain := buildWorm(t, f, m, []LinkID{f.NetLink(0, 0)})
	// No flits to move.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on empty move")
			}
		}()
		f.MoveFlit(chain[0])
	}()
	// Full destination buffer.
	f.VCs[chain[0]].Flits = 1
	f.VCs[chain[1]].Flits = int32(f.Cfg.BufFlits)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on full destination")
			}
		}()
		f.MoveFlit(chain[0])
	}()
}

func TestAllocatePanicsOnDoubleAllocation(t *testing.T) {
	f := testFabric(t, 4, 2)
	m1 := f.NewMessage(0, 1, 4, 0)
	m2 := f.NewMessage(2, 3, 4, 0)
	vc := f.Links[f.NetLink(0, 0)].FirstVC
	f.Allocate(m1, NilVC, vc)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Allocate(m2, NilVC, vc)
}

func TestReleaseWorm(t *testing.T) {
	f := testFabric(t, 4, 2)
	m := f.NewMessage(0, 2, 16, 0)
	path := []LinkID{f.NetLink(0, 0), f.NetLink(1, 0)}
	chain := buildWorm(t, f, m, path)
	for _, vc := range chain {
		f.VCs[vc].Flits = 2
	}
	f.VCs[chain[0]].HasTail = true
	f.VCs[chain[len(chain)-1]].HasHeader = true

	freed := f.ReleaseWorm(m)
	if len(freed) != len(chain) {
		t.Fatalf("freed %d VCs, want %d", len(freed), len(chain))
	}
	for _, vc := range chain {
		if f.VCs[vc].Occupant != NilMsg {
			t.Fatalf("VC %d still occupied", vc)
		}
	}
	if m.HeadVC != NilVC || m.TailVC != NilVC {
		t.Fatal("message still references VCs")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMessagePoolReuse(t *testing.T) {
	f := testFabric(t, 4, 2)
	m1 := f.NewMessage(0, 1, 16, 5)
	id := m1.ID
	f.FreeMessage(m1)
	m2 := f.NewMessage(2, 3, 64, 9)
	if m2.ID != id {
		t.Fatalf("pool did not reuse ID: got %d, want %d", m2.ID, id)
	}
	if m2.Src != 2 || m2.Dst != 3 || m2.Length != 64 || m2.GenTime != 9 {
		t.Fatalf("recycled message has stale fields: %+v", m2)
	}
	if m2.Injected != 0 || m2.Marked || m2.Attempts != 0 {
		t.Fatal("recycled message not reset")
	}
}

func TestLiveMessages(t *testing.T) {
	f := testFabric(t, 4, 2)
	m1 := f.NewMessage(0, 1, 16, 0)
	m2 := f.NewMessage(2, 3, 16, 0)
	f.FreeMessage(m1)
	var ids []MsgID
	f.LiveMessages(func(m *Message) { ids = append(ids, m.ID) })
	if len(ids) != 1 || ids[0] != m2.ID {
		t.Fatalf("LiveMessages = %v, want [%d]", ids, m2.ID)
	}
}

func TestHeaderBlocked(t *testing.T) {
	f := testFabric(t, 4, 2)
	m := f.NewMessage(0, 2, 16, 0)
	chain := buildWorm(t, f, m, []LinkID{f.NetLink(0, 0)})
	head := chain[1]
	if f.HeaderBlocked(head) {
		t.Fatal("empty buffer reported blocked")
	}
	f.VCs[head].Flits = 1
	f.VCs[head].HasHeader = true
	if !f.HeaderBlocked(head) {
		t.Fatal("waiting header not reported blocked")
	}
	// With an output assigned it is no longer blocked.
	out := f.FreeVC(f.NetLink(1, 0))
	f.Allocate(m, head, out)
	if f.HeaderBlocked(head) {
		t.Fatal("routed header reported blocked")
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	f := testFabric(t, 4, 2)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f.VCs[0].Flits = 1 // free VC with flits
	if err := f.CheckInvariants(); err == nil {
		t.Fatal("corruption not detected")
	}
}

// TestBusyLinkWords drives the two-level busy-link bitmap on a fabric large
// enough for two summary words (7168 links, 112 words): links at both ends of
// a word, of a summary word and of the fabric come back in ascending order
// and leave no bit behind.
func TestBusyLinkWords(t *testing.T) {
	f := testFabric(t, 8, 3)
	last := LinkID(f.NumLinks() - 1)
	var held []*Message
	for _, l := range []LinkID{last, 4096, 0, 64, 4095, 63, 1000} {
		m := f.NewMessage(0, 1, 4, 0)
		f.Allocate(m, NilVC, f.FreeVC(l))
		held = append(held, m)
		checkBusyLinkWords(t, f)
	}
	// A second VC on a busy link and its release leave the bit alone.
	m := f.NewMessage(0, 1, 4, 0)
	f.Allocate(m, NilVC, f.FreeVC(64))
	f.ReleaseWorm(m)
	checkBusyLinkWords(t, f)
	if n := f.NumBusyLinks(); n != 7 {
		t.Fatalf("NumBusyLinks = %d, want 7", n)
	}
	for _, m := range held {
		f.ReleaseWorm(m)
		checkBusyLinkWords(t, f)
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.NumBusyLinks(); n != 0 {
		t.Fatalf("%d links busy after releasing everything", n)
	}
}

// TestCheckInvariantsBusyLinkBitmap flips one bit at each level of the
// busy-link bitmap, set and clear, and expects CheckInvariants to name the
// link.
func TestCheckInvariantsBusyLinkBitmap(t *testing.T) {
	f := testFabric(t, 4, 2)
	busy, idle := f.NetLink(9, 1), f.NetLink(2, 0) // words 0 and 0; link 37 and link 8
	f.Allocate(f.NewMessage(0, 5, 4, 0), NilVC, f.FreeVC(busy))
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	bb := &f.busyBits
	for _, tc := range []struct {
		name string
		word int // index into busyBits.bits
		bit  uint
		want string
	}{
		{"busy link's bit cleared", 0, uint(busy), fmt.Sprintf("link %d ", busy)},
		{"idle link's bit set", 0, uint(idle), fmt.Sprintf("link %d ", idle)},
		{"summary bit cleared", bb.words, 0, "links 0..63"},
		{"summary bit set over an empty word", bb.words, 1, "links 64..127"},
	} {
		bb.bits[tc.word] ^= 1 << tc.bit
		err := f.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error naming %q", tc.name, err, tc.want)
		}
		bb.bits[tc.word] ^= 1 << tc.bit
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("after restoring every bit: %v", err)
	}
}

// TestCheckInvariantsOccupiedBitmap does the same to the occupied-VC bitmap:
// a word bit and a summary bit, each flipped alone, and CheckInvariants must
// name the VC (or the VCs of the word).
func TestCheckInvariantsOccupiedBitmap(t *testing.T) {
	f := testFabric(t, 4, 2)
	held := f.FreeVC(f.NetLink(9, 1)) // VC 111, word 1
	free := f.FreeVC(f.NetLink(2, 0)) // VC 24, word 0
	f.Allocate(f.NewMessage(0, 5, 4, 0), NilVC, held)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if held>>6 != 1 || free>>6 != 0 {
		t.Fatalf("held VC %d and free VC %d are not in words 1 and 0", held, free)
	}
	ob := &f.occBits
	for _, tc := range []struct {
		name string
		word int // index into occBits.bits
		bit  uint
		want string
	}{
		{"held VC's bit cleared", 1, uint(held) & 63, fmt.Sprintf("VC %d ", held)},
		{"free VC's bit set", 0, uint(free), fmt.Sprintf("VC %d ", free)},
		{"summary bit cleared", ob.words, 1, "VCs 64..127"},
		{"summary bit set over an empty word", ob.words, 0, "VCs 0..63"},
	} {
		ob.bits[tc.word] ^= 1 << tc.bit
		err := f.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error naming %q", tc.name, err, tc.want)
		}
		ob.bits[tc.word] ^= 1 << tc.bit
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("after restoring every bit: %v", err)
	}
}

func TestCandidatesMinimal(t *testing.T) {
	f := testFabric(t, 4, 2)
	// From node 0 to node 5 = (1,1): both X+ and Y+ are minimal.
	dst := f.Topo.ID([]int{1, 1})
	cands := f.Candidates(&Message{Dst: int32(dst)}, 0, nil)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	want := map[LinkID]bool{f.NetLink(0, 0): true, f.NetLink(0, 2): true}
	for _, c := range cands {
		if !want[c] {
			t.Fatalf("unexpected candidate %d", c)
		}
	}
}

func TestCandidatesAtDestination(t *testing.T) {
	f := testFabric(t, 4, 2)
	cands := f.Candidates(&Message{Dst: 9}, 9, nil)
	if len(cands) != f.Cfg.DelPorts {
		t.Fatalf("candidates at destination = %v", cands)
	}
	for p, c := range cands {
		if c != f.DelLink(9, p) {
			t.Fatalf("candidate %d = %d, want delivery port", p, c)
		}
	}
}

// vcsOf expands physical channels into their virtual channels in candidate
// order — the VC-granular candidate set true fully adaptive routing offers.
func vcsOf(f *Fabric, links ...LinkID) []VCID {
	var vcs []VCID
	for _, l := range links {
		for v := VCID(0); v < VCID(f.Links[l].NumVC); v++ {
			vcs = append(vcs, f.Links[l].FirstVC+v)
		}
	}
	return vcs
}

func TestPickVC(t *testing.T) {
	f := testFabric(t, 4, 2)
	r := rng.New(1)
	l1, l2 := f.NetLink(0, 0), f.NetLink(0, 2)
	cands := vcsOf(f, l1, l2)

	// Occupy all of l1 and two VCs of l2: only l2's last VC remains.
	for v := 0; v < 3; v++ {
		f.Allocate(f.NewMessage(0, 5, 16, 0), NilVC, f.Links[l1].FirstVC+VCID(v))
	}
	f.Allocate(f.NewMessage(0, 5, 16, 0), NilVC, f.Links[l2].FirstVC)
	f.Allocate(f.NewMessage(0, 5, 16, 0), NilVC, f.Links[l2].FirstVC+1)
	only := f.Links[l2].FirstVC + 2
	if got := f.PickVC(cands, r); got != only {
		t.Fatalf("picked %d, want the only free VC %d", got, only)
	}

	// Fully busy: NilVC.
	f.Allocate(f.NewMessage(0, 5, 16, 0), NilVC, only)
	if got := f.PickVC(cands, r); got != NilVC {
		t.Fatalf("picked %d on full network", got)
	}
}

func TestPickVCRandomIsUniform(t *testing.T) {
	f := testFabric(t, 4, 2)
	r := rng.New(2)
	cands := vcsOf(f, f.NetLink(0, 0), f.NetLink(0, 2))
	counts := map[VCID]int{}
	const draws = 6000
	for i := 0; i < draws; i++ {
		counts[f.PickVC(cands, r)]++
	}
	if len(counts) != 6 {
		t.Fatalf("random selection hit %d VCs, want 6", len(counts))
	}
	for vc, c := range counts {
		if c < draws/6-300 || c > draws/6+300 {
			t.Errorf("VC %d chosen %d times, want about %d", vc, c, draws/6)
		}
	}
}

func TestMessageString(t *testing.T) {
	f := testFabric(t, 4, 2)
	m := f.NewMessage(0, 5, 16, 0)
	if s := m.String(); s == "" {
		t.Error("empty String()")
	}
	if m.Blocked() {
		t.Error("fresh message blocked")
	}
	m.Phase = PhaseNetwork
	m.Attempts = 2
	if !m.Blocked() {
		t.Error("attempted message not blocked")
	}
	if m.Remaining() != 16 {
		t.Errorf("Remaining = %d", m.Remaining())
	}
}
