package sim

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/probe"
	"wormnet/internal/router"
	"wormnet/internal/topology"
	"wormnet/internal/trace"
	"wormnet/internal/traffic"
)

// The full-rescan reference kernel: the differential oracle the active-set
// kernel is checked against. Each stage below decides what to visit by
// scanning the whole shard (every generator countdown, every source queue,
// every output link, every delivery port) and never consults the kernel's
// active sets; the per-item work goes through the kernel's own helpers
// (generateArrival, admitNode, arbitrate, drainVC), so the two can differ
// only in WHICH items they visit and in what order — exactly what the
// active sets are responsible for. It is installed through Engine.refStage.

// refKernel is the reference's own state: buckets[l] collects target link l's
// feeders. A row is written by the shard of Links[l].Src only, like the
// kernel's feeder table — which the reference never reads.
type refKernel struct {
	*Engine
	buckets [][]router.VCID
}

// installReference replaces e's active-set stages with the full rescans.
func installReference(e *Engine) {
	e.refStage = (&refKernel{e, make([][]router.VCID, e.fab.NumLinks())}).stage
}

// stage runs shard s's phase ph as a full rescan, for the four stages the
// kernel drives from active sets.
func (e *refKernel) stage(ph phaseID, s int) bool {
	sh := &e.shards[s]
	switch {
	case ph == phaseGenerate && e.genSkip != nil:
		e.refGenerate(sh)
	case ph == phaseAdmit:
		sh.admits = sh.admits[:0]
		for node := sh.lo; node < sh.hi; node++ {
			e.admitNode(sh, node)
		}
	case ph == phaseTransferA:
		e.refTransferDecide(s)
	case ph == phaseDrain:
		sh.delivered = sh.delivered[:0]
		for node := sh.lo; node < sh.hi; node++ {
			for p := 0; p < e.cfg.Router.DelPorts; p++ {
				id := e.fab.Links[e.fab.DelLink(node, p)].FirstVC
				if vc := &e.fab.VCs[id]; vc.Occupant != router.NilMsg && vc.Flits > 0 {
					e.drainVC(sh, id)
				}
			}
		}
	default:
		return false
	}
	return true
}

// refGenerate finds the due arrivals by scanning every node's countdown. It
// then rebuilds the shard's arrival heap and deferred list from that scan —
// it never reads them — so the Debug audit of those structures keeps
// holding on reference runs.
func (e *Engine) refGenerate(sh *shardState) {
	sh.gens = sh.gens[:0]
	sh.genHeap, sh.genDefA = sh.genHeap[:0], sh.genDefA[:0]
	for node := sh.lo; node < sh.hi; node++ {
		deferred := false
		if due := e.genDue[node]; due >= 0 && due <= e.now {
			deferred = e.generateArrival(sh, node, e.cfg.MaxSourceQueue)
		}
		if deferred {
			sh.genDefA = append(sh.genDefA, int32(node))
		} else if e.genDue[node] >= 0 {
			e.heapPush(sh, int32(node))
		}
	}
}

// refTransferDecide buckets the shard's transfer requests by scanning every
// VC of the fabric, highest first, and then walks every output link of the
// shard's routers in canonical arbitration order (routers ascending, network
// outputs before delivery ports), skipping the idle ones. Arbitration is
// defined over a link's feeders in ascending order; the reference sorts each
// bucket itself, so that the kernel's rows arrive sorted is checked by the
// byte-identity tests, not assumed.
func (e *refKernel) refTransferDecide(s int) {
	sh := &e.shards[s]
	fab := e.fab
	vcs := fab.VCs
	for _, l := range sh.txLinks {
		e.transmitted[l] = false
	}
	sh.txLinks = sh.txLinks[:0]
	sh.moves = sh.moves[:0]
	for i := len(vcs) - 1; i >= 0; i-- {
		if vcs[i].Occupant != router.NilMsg && fab.ShardOfLink(vcs[i].Link) == s &&
			vcs[i].Flits > 0 && vcs[i].Next != router.NilVC {
			tl := vcs[vcs[i].Next].Link
			e.buckets[tl] = append(e.buckets[tl], router.VCID(i))
		}
	}
	deg := e.topo.Degree()
	for node := sh.lo; node < sh.hi; node++ {
		for k := 0; k < deg+e.cfg.Router.DelPorts; k++ {
			tl := router.LinkID(node*deg + k)
			if k >= deg {
				tl = fab.DelLink(node, k-deg)
			}
			if req := e.buckets[tl]; len(req) > 0 {
				slices.Sort(req)
				e.arbitrate(sh, tl, req, int32(fab.Cfg.BufFlits))
				e.buckets[tl] = req[:0]
			}
		}
	}
}

// runKernel runs cfg on the active-set kernel, or (reference) on the
// full-rescan reference stages, with the given shard count, returning the
// result plus the raw trace bytes when traced.
func runKernel(t *testing.T, cfg Config, reference bool, shards int, traced bool) (*Result, []byte) {
	t.Helper()
	cfg.Shards = shards
	var buf bytes.Buffer
	if traced {
		cfg.Trace = trace.NewRecorder(64)
		cfg.Trace.SetSink(&buf)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		installReference(e)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestSparseKernelByteIdentity is the cycle kernel's conformance gate: for
// every detector family, at low load and at saturation, the full-rescan
// reference and the kernel (active-set iteration) must produce
// byte-identical counters, histograms and trace streams, at one shard and at
// four. Debug mode stays on (via smallConfig), so every cycle also
// cross-checks the active lists against full rescans.
func TestSparseKernelByteIdentity(t *testing.T) {
	detectors := []struct {
		name string
		mod  func(*Config)
	}{
		{"ndm", func(c *Config) {}},
		{"pdm", func(c *Config) {
			c.Detector = func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 24) }
		}},
		{"cmh", func(c *Config) {
			c.Detector = func(f *router.Fabric) detect.Detector {
				return probe.New(f, probe.Config{InitDelay: 8})
			}
		}},
	}
	loads := []struct {
		name string
		cfg  func() Config
	}{
		{"low", func() Config {
			cfg := shardedConfig()
			cfg.Load = 0.1
			return cfg
		}},
		{"saturated", shardedConfig},
	}
	for _, ld := range loads {
		for _, det := range detectors {
			t.Run(ld.name+"/"+det.name, func(t *testing.T) {
				cfg := ld.cfg()
				det.mod(&cfg)
				wantRes, wantTrace := runKernel(t, cfg, true, 1, true)
				if len(wantTrace) == 0 {
					t.Fatal("reference run produced no trace bytes")
				}
				for _, shards := range []int{1, 4} {
					gotRes, gotTrace := runKernel(t, cfg, false, shards, true)
					if gotRes.Counters != wantRes.Counters {
						t.Errorf("sparse shards=%d: counters diverge\n got %+v\nwant %+v",
							shards, gotRes.Counters, wantRes.Counters)
					}
					if !bytes.Equal(gotTrace, wantTrace) {
						t.Errorf("sparse shards=%d: trace stream diverges (%d vs %d bytes)",
							shards, len(gotTrace), len(wantTrace))
					}
					if !reflect.DeepEqual(gotRes.LatencyHist, wantRes.LatencyHist) ||
						!reflect.DeepEqual(gotRes.DetectDelayHist, wantRes.DetectDelayHist) ||
						!reflect.DeepEqual(gotRes.DetectLatencyHist, wantRes.DetectLatencyHist) {
						t.Errorf("sparse shards=%d: histograms diverge", shards)
					}
				}
				// The reference sharded must agree with itself too, or a
				// sharded mismatch above could not be pinned on the kernel.
				refRes, refTrace := runKernel(t, cfg, true, 4, true)
				if refRes.Counters != wantRes.Counters {
					t.Errorf("reference shards=4: counters diverge\n got %+v\nwant %+v",
						refRes.Counters, wantRes.Counters)
				}
				if !bytes.Equal(refTrace, wantTrace) {
					t.Errorf("reference shards=4: trace stream diverges")
				}
			})
		}
	}
}

// TestSparseKernelUntracedSharded is TestSparseKernelByteIdentity without a
// recorder attached: detectors skip their ascending busy-link sort when
// untraced, so this is the run where EndCycle visits links in per-shard list
// order. The kernel, sharded, for every detector family, must still match
// the serial reference's counters and histograms.
func TestSparseKernelUntracedSharded(t *testing.T) {
	detectors := []struct {
		name string
		mod  func(*Config)
	}{
		{"ndm", func(c *Config) {}},
		{"pdm", func(c *Config) {
			c.Detector = func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 24) }
		}},
		{"cmh", func(c *Config) {
			c.Detector = func(f *router.Fabric) detect.Detector {
				return probe.New(f, probe.Config{InitDelay: 8})
			}
		}},
	}
	for _, det := range detectors {
		t.Run(det.name, func(t *testing.T) {
			cfg := shardedConfig()
			det.mod(&cfg)
			wantRes, _ := runKernel(t, cfg, true, 1, false)
			for _, shards := range []int{1, 2, 4} {
				gotRes, _ := runKernel(t, cfg, false, shards, false)
				if gotRes.Counters != wantRes.Counters {
					t.Errorf("untraced sparse shards=%d: counters diverge\n got %+v\nwant %+v",
						shards, gotRes.Counters, wantRes.Counters)
				}
				if !reflect.DeepEqual(gotRes.LatencyHist, wantRes.LatencyHist) ||
					!reflect.DeepEqual(gotRes.DetectDelayHist, wantRes.DetectDelayHist) ||
					!reflect.DeepEqual(gotRes.DetectLatencyHist, wantRes.DetectLatencyHist) {
					t.Errorf("untraced sparse shards=%d: histograms diverge", shards)
				}
			}
		})
	}
}

// TestSparseKernelBursty pins the capability gate: a stateful process (no
// Skipahead) must draw once per node per cycle under the kernel and the
// reference alike and still produce identical results — the kernel only
// skips ahead where it can prove equivalence.
func TestSparseKernelBursty(t *testing.T) {
	cfg := shardedConfig()
	cfg.Process = func(tp *topology.Torus) traffic.Process {
		return traffic.NewBursty(tp, traffic.NewUniform(tp), traffic.Fixed(16), 0.4, 4, 50)
	}
	wantRes, wantTrace := runKernel(t, cfg, true, 1, true)
	gotRes, gotTrace := runKernel(t, cfg, false, 1, true)
	if gotRes.Counters != wantRes.Counters {
		t.Errorf("bursty kernel vs reference: counters diverge\n got %+v\nwant %+v",
			gotRes.Counters, wantRes.Counters)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("bursty kernel vs reference: trace stream diverges")
	}
}

// TestBurstyNotSkipahead pins that the stateful burst process does NOT
// satisfy the skip-ahead capability (its per-cycle Markov state must advance
// every cycle), while the Bernoulli generator does.
func TestBurstyNotSkipahead(t *testing.T) {
	tp := topology.New(4, 2)
	var p traffic.Process = traffic.NewBursty(tp, traffic.NewUniform(tp), traffic.Fixed(16), 0.4, 4, 50)
	if _, ok := p.(traffic.Skipahead); ok {
		t.Fatal("Bursty satisfies Skipahead; its Markov state would be frozen between arrivals")
	}
	p = traffic.NewGenerator(traffic.NewUniform(tp), traffic.Fixed(16), 0.4)
	if _, ok := p.(traffic.Skipahead); !ok {
		t.Fatal("Generator does not satisfy Skipahead")
	}
}

// TestSparseActiveSetAudit drives a Debug run at saturation with recovery
// and fault churn (requeues exercise the queuePush registration path) and
// relies on the per-cycle audit to catch any active-list drift.
func TestSparseActiveSetAudit(t *testing.T) {
	cfg := shardedConfig() // Debug=true via smallConfig
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if i == 200 {
			e.FailLink(router.LinkID(3)) // kills worms -> requeue path
		}
		if i == 250 {
			e.RepairLink(router.LinkID(3))
		}
	}
	// InjectMessage must register the node in the nonempty list too.
	if m := e.InjectMessage(0, 5, 4); m == nil {
		// Saturated queue: acceptable, the bound rejected it.
		t.Log("InjectMessage rejected by full queue (acceptable at saturation)")
	}
	if err := e.auditActiveSets(); err != nil {
		t.Fatal(err)
	}
}

// TestActiveSetAuditCatchesCorruption is the negative direction of the
// audit: with one active-set structure corrupted at a time, the Debug check
// must fail and name the structure. The kernel trusts these sets to decide
// what to visit, so a silent audit would let a stale set skip work unseen.
func TestActiveSetAuditCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, e *Engine)
		want    string
	}{
		{"cleared live nonempty-queue bit", func(t *testing.T, e *Engine) {
			if e.InjectMessage(0, 5, 4) == nil {
				t.Fatal("InjectMessage rejected at low load")
			}
			e.neBits[0][0] &^= 1
		}, "node 0 nonempty-queue bit false"},
		{"node dropped from the arrival heap", func(t *testing.T, e *Engine) {
			sh := &e.shards[0]
			if len(sh.genHeap) == 0 {
				t.Fatal("no scheduled arrivals to drop")
			}
			sh.genHeap = sh.genHeap[:len(sh.genHeap)-1] // a leaf: heap order survives
		}, "heaps and deferred lists track"},
		{"feeder bucket left undrained", func(t *testing.T, e *Engine) {
			e.feedN[2] = 1
		}, "feeder row for link 2 holds 1 entries"},
		{"feeder row out of order at arbitration", func(t *testing.T, e *Engine) {
			// What transferDecide leaves for arbitration when two VCs feed
			// link 2, bucketed in the wrong order.
			sh := &e.shards[0]
			row := e.feed[2*e.feedStride:]
			row[0], row[1] = 9, 4
			e.feedN[2] = 2
			key := e.linkKey[2]
			sh.keyBits[key>>6] |= 1 << (key & 63)
			e.auditFeedRows(sh)
		}, "feeder row for link 2 is not ascending: [9 4]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig() // Debug on, light load
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			tc.corrupt(t, e)
			err = e.auditActiveSets()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit error %v, want one containing %q", err, tc.want)
			}
		})
	}

	// The same corruption must surface through a Debug Step, not only a
	// direct audit call. Dropping a heap leaf is the case a Step cannot
	// repair on its own: the node is simply never visited again.
	e, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sh := &e.shards[0]
	sh.genHeap = sh.genHeap[:len(sh.genHeap)-1]
	if err := e.Step(); err == nil || !strings.Contains(err.Error(), "heaps and deferred lists track") {
		t.Fatalf("Debug Step error %v, want the arrival-heap audit failure", err)
	}
}
