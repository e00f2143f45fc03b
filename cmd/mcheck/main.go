// Command mcheck runs the bounded model checker (internal/mc): it
// exhaustively explores every blocking/advancing/injection interleaving of a
// tiny fabric under a scripted workload and checks the paper's detection
// invariants — safety, liveness (every true deadlock is marked and drained
// within a horizon) and mark economy — for one or more mechanisms.
//
// Typical CI gate (see `make conformance-exhaustive`):
//
//	mcheck -k 3 -mech ndm,pdm,cmh -script face -window 0 -min-deadlocks 1
//	mcheck -k 2 -mech ndm,pdm,cmh -script face -window 1
//
// The workload is either a named preset (-script face | dblface) or an
// explicit comma-separated list of src>dst[xlen] entries:
//
//	mcheck -k 3 -script '0>4x2,1>3x2,4>0x2,3>1x2'
//
// The presets place corner-turning messages around the unit face of the
// torus — the minimal wait cycle under minimal adaptive routing; dblface
// doubles every message to also saturate the parallel channels of a k=2
// fabric (the nightly 2x2 configuration, ~1M states).
//
// On a violation, mcheck prints the counterexample's choice path, minimizes
// it, optionally replays it into a trace stream (-cex file.jsonl) that
// `wormview trace` renders, and exits 1. -min-deadlocks guards against vacuous
// liveness runs: if fewer deadlocked states were reached the run fails even
// without a violation. -emit-fuzz-seeds writes sampled frontier-state
// encodings as Go fuzz corpus files (see internal/detect's fuzz harnesses).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"wormnet/internal/mc"
	"wormnet/internal/spec"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcheck: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	// The fabric flags; mc.Options holds the rest of the checked run.
	fab := spec.Run{K: 3, N: 2, VirtualChannels: 1, BufferFlits: 2}
	fab.AddFlags(flag.CommandLine, []string{"k", "n", "vcs", "buf"}, nil)
	var (
		mechs      = flag.String("mech", "ndm,pdm,cmh", "comma-separated mechanisms to check: ndm, pdm, cmh, none")
		threshold  = flag.Int64("threshold", 4, "detection threshold (NDM t2 / PDM threshold / CMH init delay)")
		script     = flag.String("script", "face", "workload: 'face', 'dblface', or src>dst[xlen] entries (comma-separated)")
		window     = flag.Int("window", 0, "injection deferral window in cycles (each deferral is an explored branch)")
		depth      = flag.Int("depth", 0, "max explored depth in cycles (0 = to fixpoint)")
		horizon    = flag.Int("horizon", 0, "liveness horizon in cycles (0 = auto)")
		strict     = flag.Bool("strict", false, "require exactly one true mark per drained deadlock (see DESIGN.md §13)")
		maxStates  = flag.Int("max-states", 2_000_000, "visited-state cap")
		minDL      = flag.Int("min-deadlocks", 0, "fail unless at least this many deadlocked states were reached")
		cex        = flag.String("cex", "", "write the minimized counterexample trace (JSONL) to this file")
		seedDir    = flag.String("emit-fuzz-seeds", "", "write sampled frontier encodings as Go fuzz corpus files into this directory")
		seedCount  = flag.Int("seeds", 16, "how many fuzz seeds to sample (with -emit-fuzz-seeds)")
		seedPrefix = flag.String("seed-prefix", "mc", "corpus file name prefix (with -emit-fuzz-seeds)")
		verbose    = flag.Bool("v", false, "progress output while exploring")
	)
	flag.Parse()

	// mc.Options reads a zero as its own default; a zero typed here is refused
	// instead of being run as one.
	switch {
	case *threshold < 1:
		fail("-threshold must be >= 1, got %d", *threshold)
	case fab.VirtualChannels < 1:
		fail("-vcs must be >= 1, got %d", fab.VirtualChannels)
	case fab.BufferFlits < 1:
		fail("-buf must be >= 1, got %d", fab.BufferFlits)
	}
	inj, err := parseScript(*script, fab.K)
	if err != nil {
		fail("%v", err)
	}

	failed := false
	for _, mech := range strings.Split(*mechs, ",") {
		mech = strings.TrimSpace(mech)
		if mech == "" {
			continue
		}
		o := mc.Options{
			K: fab.K, N: fab.N, VCs: fab.VirtualChannels, BufFlits: fab.BufferFlits,
			Mechanism: mech, Threshold: *threshold,
			Script: inj, InjectWindow: *window,
			MaxDepth: *depth, Horizon: *horizon, Strict: *strict,
			MaxStates: *maxStates,
		}
		if *seedDir != "" {
			o.CollectSeeds = *seedCount
		}
		if *verbose {
			o.Log = os.Stderr
		}
		res, err := mc.Check(o)
		if err != nil {
			fail("%s: %v", mech, err)
		}
		scope := "complete"
		switch {
		case res.Violation != nil:
			scope = "stopped at first violation"
		case !res.Complete:
			scope = "TRUNCATED at max-states"
		case res.DepthCapped:
			scope = fmt.Sprintf("complete to depth %d", *depth)
		}
		fmt.Printf("mcheck %s on %s (%d msgs, window %d): %d states, %d interleavings, depth %d, %s; %d deadlocked states, %d true marks\n",
			mech, fabricName(fab.K, fab.N), len(inj), *window, res.States, res.Leaves, res.Depth, scope, res.DeadlockStates, res.TrueMarks)

		if res.Violation != nil {
			v, err := mc.Minimize(o, res.Violation)
			if err != nil {
				fail("%s: minimize: %v", mech, err)
			}
			fmt.Printf("  %v\n  choice path: %v\n", v, v.Path)
			if *cex != "" {
				f, err := os.Create(*cex)
				if err != nil {
					fail("%v", err)
				}
				if err := mc.WriteTrace(o, v.Path, f); err != nil {
					fail("writing counterexample: %v", err)
				}
				if err := f.Close(); err != nil {
					fail("writing counterexample: %v", err)
				}
				fmt.Printf("  counterexample trace: %s (render with: go run ./cmd/wormview trace %s)\n", *cex, *cex)
			}
			failed = true
			continue
		}
		if res.DeadlockStates < *minDL {
			fmt.Printf("  FAIL: %d deadlocked states reached, need >= %d (liveness check too vacuous)\n",
				res.DeadlockStates, *minDL)
			failed = true
		}
		if *seedDir != "" {
			wrote, err := writeSeeds(*seedDir, *seedPrefix, mech, res.Seeds)
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("  wrote %d fuzz corpus seeds into %s\n", wrote, *seedDir)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// fabricName names the k-ary n-cube by its extent in every dimension: the
// 3x3 torus, or 2x2x2 for the 2-ary 3-cube.
func fabricName(k, n int) string {
	return strings.TrimSuffix(strings.Repeat(strconv.Itoa(k)+"x", n), "x")
}

// parseScript resolves the workload: the face/dblface presets place
// corner-turning messages around the unit face at the origin (nodes 0, 1, k,
// k+1 in row-major id order); explicit entries are src>dst or src>dstxlen.
func parseScript(s string, k int) ([]mc.Inject, error) {
	switch s {
	case "face", "dblface":
		a, b, c, d := 0, 1, k, k+1
		face := []mc.Inject{
			{Src: a, Dst: d, Length: 2},
			{Src: b, Dst: c, Length: 2},
			{Src: d, Dst: a, Length: 2},
			{Src: c, Dst: b, Length: 2},
		}
		if s == "dblface" {
			dbl := make([]mc.Inject, 0, 8)
			for _, m := range face {
				dbl = append(dbl, m, m)
			}
			return dbl, nil
		}
		return face, nil
	}
	var out []mc.Inject
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		sd, lenStr, hasLen := strings.Cut(ent, "x")
		srcStr, dstStr, ok := strings.Cut(sd, ">")
		if !ok {
			return nil, fmt.Errorf("bad script entry %q (want src>dst or src>dstxlen)", ent)
		}
		src, err1 := strconv.Atoi(strings.TrimSpace(srcStr))
		dst, err2 := strconv.Atoi(strings.TrimSpace(dstStr))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad script entry %q", ent)
		}
		length := 2
		if hasLen {
			length, err1 = strconv.Atoi(strings.TrimSpace(lenStr))
			if err1 != nil || length < 1 {
				return nil, fmt.Errorf("bad length in script entry %q", ent)
			}
		}
		out = append(out, mc.Inject{Src: src, Dst: dst, Length: length})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty script %q", s)
	}
	return out, nil
}

// writeSeeds emits frontier-state encodings as Go fuzz corpus files: two
// header bytes (exercising the harness's policy/threshold decoding) followed
// by the raw canonical encoding as the opcode program. Any byte string is a
// valid program for the detect/probe fuzz harnesses, and model-checker
// states carry far more structure than random bytes.
func writeSeeds(dir, prefix, mech string, seeds [][]byte) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	for i, enc := range seeds {
		data := append([]byte{byte(i), byte(len(enc))}, enc...)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		name := filepath.Join(dir, fmt.Sprintf("%s-%s-%03d", prefix, mech, i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			return i, err
		}
	}
	return len(seeds), nil
}
