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
	"wormnet/internal/trace"
)

// The full-rescan reference kernel: the differential oracle the active-set
// kernel is checked against. Each stage below decides what to visit by
// scanning the whole fabric (every generator countdown, every source queue,
// every output link, every delivery port) and never consults the kernel's
// active sets; the per-item work goes through the kernel's own helpers
// (generateArrival, admitNode, arbitrate, drainVC), so the two can differ
// only in WHICH items they visit and in what order — exactly what the
// active sets are responsible for. It is installed through Engine.refStage.

// refKernel is the reference's own state: buckets[l] collects target link l's
// feeders, kept apart from the kernel's feeder table, which the reference
// never reads.
type refKernel struct {
	*Engine
	buckets [][]router.VCID
}

// installReference replaces e's active-set stages with the full rescans.
func installReference(e *Engine) {
	e.refStage = (&refKernel{e, make([][]router.VCID, e.fab.NumLinks())}).stage
}

// satConfig is smallConfig driven into saturation on one VC, with NDM and the
// oracle on: enough contention for arbitration, detection and recovery to
// all run.
func satConfig() Config {
	cfg := smallConfig()
	cfg.Router.VCsPerLink = 1
	cfg.Load = 2.0
	cfg.InjectionLimit = -1
	cfg.OracleEvery = 32
	cfg.Warmup, cfg.Measure = 500, 2500
	cfg.Detector = func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 16) }
	return cfg
}

// stage runs phase ph as a full rescan, for the four stages the kernel
// drives from active sets.
func (e *refKernel) stage(ph phaseID) bool {
	switch {
	case ph == phaseGenerate:
		e.refGenerate()
	case ph == phaseAdmit:
		for node := range e.queues {
			e.admitNode(node)
		}
	case ph == phaseTransferDecide:
		e.refTransferDecide()
	case ph == phaseDrain:
		for node := range e.queues {
			for p := 0; p < e.cfg.Router.DelPorts; p++ {
				id := e.fab.Links[e.fab.DelLink(node, p)].FirstVC
				if vc := &e.fab.VCs[id]; vc.Occupant != router.NilMsg && vc.Flits > 0 {
					e.drainVC(id)
				}
			}
		}
	default:
		return false
	}
	return true
}

// refGenerate finds the due arrivals by scanning every node's countdown. It
// then rebuilds the arrival heap and deferred list from that scan — it never
// reads them — so the Debug audit of those structures keeps holding on
// reference runs.
func (e *Engine) refGenerate() {
	e.genHeap, e.genDefA = e.genHeap[:0], e.genDefA[:0]
	for node := range e.genDue {
		deferred := false
		if due := e.genDue[node]; due >= 0 && due <= e.now {
			deferred = e.generateArrival(node, e.cfg.MaxSourceQueue)
		}
		if deferred {
			e.genDefA = append(e.genDefA, int32(node))
		} else if e.genDue[node] >= 0 {
			e.heapPush(int32(node))
		}
	}
}

// refTransferDecide buckets the transfer requests by scanning every VC of the
// fabric, highest first, and then walks every output link in canonical
// arbitration order (routers ascending, network outputs before delivery
// ports), skipping the idle ones. Arbitration is defined over a link's
// feeders in ascending order; the reference sorts each bucket itself, so that
// the kernel's rows arrive sorted is checked by the byte-identity tests, not
// assumed.
func (e *refKernel) refTransferDecide() {
	fab := e.fab
	vcs := fab.VCs
	e.txLinks = e.txLinks[:0]
	e.moves = e.moves[:0]
	for i := len(vcs) - 1; i >= 0; i-- {
		if vcs[i].Occupant != router.NilMsg && vcs[i].Flits > 0 && vcs[i].Next != router.NilVC {
			tl := vcs[vcs[i].Next].Link
			e.buckets[tl] = append(e.buckets[tl], router.VCID(i))
		}
	}
	deg := e.topo.Degree()
	for node := range e.queues {
		for k := 0; k < deg+e.cfg.Router.DelPorts; k++ {
			tl := router.LinkID(node*deg + k)
			if k >= deg {
				tl = fab.DelLink(node, k-deg)
			}
			if req := e.buckets[tl]; len(req) > 0 {
				slices.Sort(req)
				e.arbitrate(tl, req, int32(fab.Cfg.BufFlits))
				e.buckets[tl] = req[:0]
			}
		}
	}
}

// runKernel runs cfg on the active-set kernel, or (reference) on the
// full-rescan reference stages, returning the result plus the raw trace bytes
// when traced.
func runKernel(t *testing.T, cfg Config, reference, traced bool) (*Result, []byte) {
	t.Helper()
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

// kernelDetectors are the detector families the differential tests cover.
var kernelDetectors = []struct {
	name string
	mod  func(*Config)
}{
	{"ndm", func(c *Config) {}},
	{"pdm", func(c *Config) {
		c.Detector = func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 24) }
	}},
	{"cmh", func(c *Config) {
		c.Detector = func(f *router.Fabric) detect.Detector {
			return probe.New(f, probe.Config{InitDelay: 8, MaxHops: 64})
		}
	}},
}

// TestSparseKernelByteIdentity is the cycle kernel's conformance gate: for
// every detector family, at low load and at saturation, the full-rescan
// reference and the kernel (active-set iteration) must produce
// byte-identical counters, histograms and trace streams. Debug mode stays on
// (via smallConfig), so every cycle also cross-checks the active sets against
// full rescans.
func TestSparseKernelByteIdentity(t *testing.T) {
	loads := []struct {
		name string
		cfg  func() Config
	}{
		{"low", func() Config {
			cfg := satConfig()
			cfg.Load = 0.1
			return cfg
		}},
		{"saturated", satConfig},
	}
	for _, ld := range loads {
		for _, det := range kernelDetectors {
			t.Run(ld.name+"/"+det.name, func(t *testing.T) {
				cfg := ld.cfg()
				det.mod(&cfg)
				wantRes, wantTrace := runKernel(t, cfg, true, true)
				if len(wantTrace) == 0 {
					t.Fatal("reference run produced no trace bytes")
				}
				gotRes, gotTrace := runKernel(t, cfg, false, true)
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("kernel trace stream diverges (%d vs %d bytes)", len(gotTrace), len(wantTrace))
				}
				sameKernelResult(t, "kernel", gotRes, wantRes)
			})
		}
	}
}

// sameKernelResult compares counters and the three histograms.
func sameKernelResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Counters != want.Counters {
		t.Errorf("%s: counters diverge\n got %+v\nwant %+v", what, got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.LatencyHist, want.LatencyHist) ||
		!reflect.DeepEqual(got.DetectDelayHist, want.DetectDelayHist) ||
		!reflect.DeepEqual(got.DetectLatencyHist, want.DetectLatencyHist) {
		t.Errorf("%s: histograms diverge", what)
	}
}

// TestSparseKernelUntraced is TestSparseKernelByteIdentity without a
// recorder attached: detectors skip their tracing work when untraced, so
// this is the run where nothing but the counters and histograms can tell the
// kernel from the reference, for every detector family.
func TestSparseKernelUntraced(t *testing.T) {
	for _, det := range kernelDetectors {
		t.Run(det.name, func(t *testing.T) {
			cfg := satConfig()
			det.mod(&cfg)
			wantRes, _ := runKernel(t, cfg, true, false)
			gotRes, _ := runKernel(t, cfg, false, false)
			sameKernelResult(t, "untraced kernel", gotRes, wantRes)
		})
	}
}

// TestSparseActiveSetAudit drives a Debug run at saturation with recovery
// (requeues exercise the queuePush registration path) and relies on the
// per-cycle audit to catch any active-list drift.
func TestSparseActiveSetAudit(t *testing.T) {
	cfg := satConfig() // Debug=true via smallConfig
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Reinjected == 0 {
		t.Fatal("no recovered message was re-queued: the requeue path never ran")
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
			e.neBits[0] &^= 1
		}, "node 0 nonempty-queue bit false"},
		{"node dropped from the arrival heap", func(t *testing.T, e *Engine) {
			if len(e.genHeap) == 0 {
				t.Fatal("no scheduled arrivals to drop")
			}
			e.genHeap = e.genHeap[:len(e.genHeap)-1] // a leaf: heap order survives
		}, "arrival heap and deferred list track"},
		{"feeder bucket left undrained", func(t *testing.T, e *Engine) {
			e.feedN[2] = 1
		}, "feeder row for link 2 holds 1 entries"},
		{"feeder row out of order at arbitration", func(t *testing.T, e *Engine) {
			// What transferDecide leaves for arbitration when two VCs feed
			// link 2, bucketed in the wrong order.
			row := e.feed[2*e.feedStride:]
			row[0], row[1] = 9, 4
			e.feedN[2] = 2
			key := e.linkKey[2]
			e.keyBits[key>>6] |= 1 << (key & 63)
			e.auditFeedRows()
		}, "feeder row for link 2 is not ascending: [9 4]"},
		{"link on the transmitted list twice", func(t *testing.T, e *Engine) {
			e.txLinks = append(e.txLinks[:0], 2, 2)
		}, "link 2 on the transmitted list twice"},
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
	e.genHeap = e.genHeap[:len(e.genHeap)-1]
	if err := e.Step(); err == nil || !strings.Contains(err.Error(), "arrival heap and deferred list track") {
		t.Fatalf("Debug Step error %v, want the arrival-heap audit failure", err)
	}
}
