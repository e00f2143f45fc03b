package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/router"
	"wormnet/internal/trace"
)

// TestFlagEventsLayoutIndependent: on the deadlock-storm fabric (8-ary
// 2-cube, one virtual channel, load 2.0) NDM and PDM emit their flag events
// off the fabric's busy-link bitmap, read as the OR of the occupancy shards'
// shares. The raw trace bytes must therefore be the same at one shard and at
// four, with the Debug audits (both bitmap levels, the detector's own) on
// every cycle, and within a cycle each run of i-set/dt-set events — one
// EndCycle's counting pass — must come out in ascending link order.
func TestFlagEventsLayoutIndependent(t *testing.T) {
	for _, tc := range []struct {
		name string
		det  DetectorFactory
	}{
		{"ndm", func(f *router.Fabric) detect.Detector { return detect.NewNDM(f, 32) }},
		{"pdm", func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, 32) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stormConfig(1)
			cfg.K = 8
			cfg.Warmup, cfg.Measure = 0, 1200
			cfg.Detector = tc.det
			_, want := runKernel(t, cfg, false, 1, true)
			_, got := runKernel(t, cfg, false, 4, true)
			if !bytes.Equal(got, want) {
				t.Fatalf("trace stream differs between 1 and 4 shards (%d vs %d bytes)", len(want), len(got))
			}
			sets := 0
			var prev trace.Event
			err := trace.Scan(bytes.NewReader(want), func(ev trace.Event) error {
				if ev.Kind == trace.KindISet || ev.Kind == trace.KindDTSet {
					sets++
					// NDM raises I then DT for one link back to back only when
					// t1 == t2, so within a cycle links never repeat or descend.
					if (prev.Kind == trace.KindISet || prev.Kind == trace.KindDTSet) &&
						prev.Cycle == ev.Cycle && prev.Link >= ev.Link {
						t.Errorf("cycle %d: %v on link %d follows link %d", ev.Cycle, ev.Kind, ev.Link, prev.Link)
					}
				}
				prev = ev
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if sets == 0 {
				t.Fatal("no flag was ever set: the run did not exercise the counting pass")
			}
		})
	}
}

// auditFails is a detector whose only capability is an audit that fails.
type auditFails struct{ detect.None }

func (auditFails) Capabilities() detect.Capabilities {
	return detect.Capabilities{Audit: func() error { return errors.New("detector state corrupt") }}
}

// TestDebugRunsDetectorAudit: Config.Debug fails the cycle on the detector's
// own audit, and only Debug does.
func TestDebugRunsDetectorAudit(t *testing.T) {
	cfg := smallConfig()
	cfg.Detector = func(*router.Fabric) detect.Detector { return auditFails{} }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err == nil || !strings.Contains(err.Error(), "detector state corrupt") {
		t.Fatalf("Debug Step = %v, want the audit's error", err)
	}
	cfg.Debug = false
	if e, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatalf("non-Debug Step ran the audit: %v", err)
	}
}
