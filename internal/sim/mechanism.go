package sim

import (
	"fmt"
	"strings"

	"wormnet/internal/detect"
	"wormnet/internal/probe"
	"wormnet/internal/router"
)

// Mechanism describes a detection mechanism by name and parameters. Its
// Factory method is the one place mechanism names map onto detector
// constructors: the public facade, the paper-table harness and the model
// checker all describe their detector with this value.
type Mechanism struct {
	// Name is one of MechanismNames.
	Name string
	// Threshold is the detection threshold in cycles: NDM's t2, PDM's
	// inactivity threshold, a timeout's limit, CMH's probe initiation delay
	// (it overrides Probe.InitDelay).
	Threshold int64
	// T1 and Promotion apply to NDM only; a zero T1 selects the paper's 1.
	T1        int64
	Promotion detect.PromotionPolicy
	// Probe holds CMH's remaining knobs; zero values select the
	// internal/probe defaults.
	Probe probe.Config
}

// mechanisms lists every mechanism in the order the CLIs document them.
// build returns nil for a mechanism that needs no detector at all.
var mechanisms = []struct {
	name  string
	build func(Mechanism) DetectorFactory
}{
	{"ndm", func(m Mechanism) DetectorFactory {
		t1 := max(m.T1, 1)
		return func(f *router.Fabric) detect.Detector {
			return detect.NewNDMOpt(f, t1, m.Threshold, m.Promotion)
		}
	}},
	{"pdm", func(m Mechanism) DetectorFactory {
		return func(f *router.Fabric) detect.Detector { return detect.NewPDM(f, m.Threshold) }
	}},
	{"cmh", func(m Mechanism) DetectorFactory {
		pc := m.Probe
		pc.InitDelay = m.Threshold
		return func(f *router.Fabric) detect.Detector { return probe.New(f, pc) }
	}},
	{"src-age", func(m Mechanism) DetectorFactory {
		return func(*router.Fabric) detect.Detector { return detect.NewSourceAgeTimeout(m.Threshold) }
	}},
	{"src-stall", func(m Mechanism) DetectorFactory {
		return func(*router.Fabric) detect.Detector { return detect.NewSourceStallTimeout(m.Threshold) }
	}},
	{"hdr-block", func(m Mechanism) DetectorFactory {
		return func(*router.Fabric) detect.Detector { return detect.NewHeaderBlockTimeout(m.Threshold) }
	}},
	{"none", func(Mechanism) DetectorFactory { return nil }},
}

// MechanismNames returns every mechanism name Factory accepts, in
// documentation order; "none" (no detection, and therefore no recovery) is
// last.
func MechanismNames() []string {
	names := make([]string, len(mechanisms))
	for i, m := range mechanisms {
		names[i] = m.name
	}
	return names
}

// Factory resolves the description into the Config.Detector value: nil for
// "none", an error for an unknown name or for thresholds the mechanism cannot
// run with.
func (m Mechanism) Factory() (DetectorFactory, error) {
	for _, k := range mechanisms {
		if k.name != m.Name {
			continue
		}
		switch t1 := max(m.T1, 1); {
		case m.Name == "ndm" && m.Threshold < t1:
			return nil, fmt.Errorf("sim: ndm needs 1 <= t1 <= t2, got t1=%d t2=%d", t1, m.Threshold)
		case m.Name == "pdm" && m.Threshold < 1:
			return nil, fmt.Errorf("sim: pdm needs a threshold of at least 1, got %d", m.Threshold)
		}
		return k.build(m), nil
	}
	return nil, fmt.Errorf("sim: unknown mechanism %q (available: %s)",
		m.Name, strings.Join(MechanismNames(), ", "))
}
