package sim

import (
	"testing"

	"wormnet/internal/detect"
	"wormnet/internal/probe"
	"wormnet/internal/router"
	"wormnet/internal/topology"
)

// TestMechanismFactory builds every name the one factory accepts and pins
// the detector each yields by its Name(), which encodes the constructor and
// every parameter that reached it. The names are those the three former
// switches (wormnet.Config, exp.cellConfig, mc.Options) produced.
func TestMechanismFactory(t *testing.T) {
	fab, err := router.NewFabric(topology.New(4, 2), router.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"ndm":       "ndm(t2=32)",
		"pdm":       "pdm(th=32)",
		"cmh":       "cmh(init=32,hops=64,steal-idle,local)",
		"src-age":   "src-age(th=32)",
		"src-stall": "src-stall(th=32)",
		"hdr-block": "hdr-block(th=32)",
	}
	names := MechanismNames()
	if len(names) != len(want)+1 || names[len(names)-1] != "none" {
		t.Fatalf("MechanismNames() = %v, want %d detectors then \"none\"", names, len(want))
	}
	for _, name := range names {
		f, err := Mechanism{Name: name, Threshold: 32, T1: 1, Probe: probe.Config{MaxHops: 64}}.Factory()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "none" {
			if f != nil {
				t.Error("\"none\" must resolve to a nil factory (no detection)")
			}
			continue
		}
		if got := f(fab).Name(); got != want[name] {
			t.Errorf("%s built %q, want %q", name, got, want[name])
		}
	}
	if _, err := (Mechanism{Name: "nope", Threshold: 32}).Factory(); err == nil {
		t.Error("unknown mechanism accepted")
	}

	// Every parameter reaches its constructor.
	tuned := []struct {
		m    Mechanism
		want string
	}{
		{Mechanism{Name: "ndm", Threshold: 64, T1: 2, Promotion: detect.PromoteWaiting},
			"ndm(t1=2,t2=64,promote=selective)"},
		{Mechanism{Name: "cmh", Threshold: 8, Probe: probe.Config{
			InitDelay: 999, MaxHops: 16, Transport: probe.TransportControlVC, Victim: probe.VictimOldest}},
			"cmh(init=8,hops=16,ctrl-vc,oldest)"},
	}
	for _, tc := range tuned {
		f, err := tc.m.Factory()
		if err != nil {
			t.Fatal(err)
		}
		if got := f(fab).Name(); got != tc.want {
			t.Errorf("built %q, want %q", got, tc.want)
		}
	}
}
