package sim

import (
	"testing"

	"wormnet/internal/router"
)

// TestInjectionLimitPerAdmission: the injection-limitation check runs once
// per admission, not once per node per cycle. With several injection ports
// and the busy count already at the limit, only as many messages may be
// admitted in one cycle as the remaining allowance; the old per-node check
// admitted up to InjPorts messages at once, overshooting the limit.
func TestInjectionLimitPerAdmission(t *testing.T) {
	cfg := smallConfig()
	cfg.Load = 0
	cfg.Warmup, cfg.Measure = 0, 1<<40
	cfg.RetainMessages = true
	cfg.Router.InjPorts = 4
	cfg.InjectionLimit = 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Queue four messages at node 0. With limit 0 and no busy output VCs,
	// exactly one may be admitted in the first cycle: its charge uses up
	// the allowance for the remaining ports.
	var ms []*router.Message
	for i := 0; i < 4; i++ {
		ms = append(ms, e.InjectMessage(0, 3, 8))
	}
	stepN(t, e, 1)
	if got := inNetwork(ms); got != 1 {
		t.Fatalf("cycle 1: %d messages admitted with limit 0, want 1", got)
	}
}

// TestInjectionLimitAllowsUpToLimit: with allowance for two more busy VCs, a
// multi-port router admits exactly two messages in one cycle — the limit
// neither blocks legitimate admissions nor lets the port loop overshoot.
func TestInjectionLimitAllowsUpToLimit(t *testing.T) {
	cfg := smallConfig()
	cfg.Load = 0
	cfg.Warmup, cfg.Measure = 0, 1<<40
	cfg.RetainMessages = true
	cfg.Router.InjPorts = 4
	cfg.InjectionLimit = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ms []*router.Message
	for i := 0; i < 4; i++ {
		ms = append(ms, e.InjectMessage(0, 3, 8))
	}
	stepN(t, e, 1)
	// busy=0 <= 1 admits the first, busy=1 <= 1 admits the second,
	// busy=2 > 1 stops the loop.
	if got := inNetwork(ms); got != 2 {
		t.Fatalf("cycle 1: %d messages admitted with limit 1, want 2", got)
	}
}

// TestInjectionLimitDisabled: a negative limit admits through every port in
// one cycle (the pre-existing unlimited behavior is unchanged).
func TestInjectionLimitDisabled(t *testing.T) {
	cfg := smallConfig()
	cfg.Load = 0
	cfg.Warmup, cfg.Measure = 0, 1<<40
	cfg.RetainMessages = true
	cfg.Router.InjPorts = 4
	cfg.InjectionLimit = -1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ms []*router.Message
	for i := 0; i < 4; i++ {
		ms = append(ms, e.InjectMessage(0, 3, 8))
	}
	stepN(t, e, 1)
	if got := inNetwork(ms); got != 4 {
		t.Fatalf("cycle 1: %d messages admitted with no limit, want 4", got)
	}
}

func inNetwork(ms []*router.Message) int {
	n := 0
	for _, m := range ms {
		if m.Phase == router.PhaseNetwork {
			n++
		}
	}
	return n
}

// TestMsgQueueFIFO exercises the ring buffer through growth and wraparound.
func TestMsgQueueFIFO(t *testing.T) {
	var q msgQueue
	next, want := router.MsgID(0), router.MsgID(0)
	// Interleave pushes and pops at relatively prime rates so head walks
	// the ring across several growth episodes.
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 2 && q.Len() > 0; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d IDs, pushed %d", want, next)
	}
}
