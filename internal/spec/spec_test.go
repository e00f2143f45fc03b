package spec

import (
	"flag"
	"io"
	"testing"
)

// TestAddFlags: each shared workload flag lands in its Run field, the
// field's value before the call is the flag's default, a usage entry
// rewords its flag, -len 0 selects the bimodal sl mix and a negative length
// is refused.
func TestAddFlags(t *testing.T) {
	r := Default()
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	r.AddFlags(fs, []string{"k", "n", "vcs", "buf", "pattern", "len", "load", "th", "selective", "seed", "warmup", "measure"},
		map[string]string{"load": "offered load (one mode only)"})
	if got := fs.Lookup("len").DefValue; got != "16" {
		t.Errorf("-len default %q, want 16", got)
	}
	if got := fs.Lookup("load").Usage; got != "offered load (one mode only)" {
		t.Errorf("-load usage %q, want the reworded text", got)
	}
	err := fs.Parse([]string{"-k", "4", "-n", "2", "-vcs", "2", "-buf", "8", "-pattern", "tornado", "-len", "0",
		"-load", "0.5", "-th", "64", "-selective", "-seed", "9", "-warmup", "10", "-measure", "20"})
	if err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.K, want.N, want.VirtualChannels, want.BufferFlits = 4, 2, 2, 8
	want.Pattern, want.Lengths, want.Load, want.Threshold = Tornado, LenSL, 0.5, 64
	want.SelectivePromotion, want.Seed, want.Warmup, want.Measure = true, 9, 10, 20
	if r != want {
		t.Errorf("parsed run\n%+v\nwant\n%+v", r, want)
	}
	if err := fs.Parse([]string{"-len", "-1"}); err == nil {
		t.Error("-len -1 accepted")
	}
}

// TestDefaultTranslates: the paper's baseline is valid, and its engine
// configuration carries the paper's router and detector.
func TestDefaultTranslates(t *testing.T) {
	sc, err := Default().SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	if r := sc.Router; r.VCsPerLink != 3 || r.BufFlits != 4 || r.InjPorts != 4 || r.DelPorts != 4 {
		t.Errorf("router %+v, want 3 VCs of 4 flits and 4 ports", r)
	}
	if sc.Detector == nil || sc.InjectionLimit != 6 || sc.Warmup != 5000 || sc.Measure != 30000 {
		t.Errorf("engine configuration %+v, want NDM, injection limit 6, 5000+30000 cycles", sc)
	}
}
