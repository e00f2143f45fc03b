package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuMeter reports process CPU time over wall time since it was started:
// about 1 for a serial workload that had a core to itself, lower when the
// host took the core away.
type cpuMeter struct {
	wall time.Time
	cpu  float64
}

func startCPUMeter() cpuMeter { return cpuMeter{wall: time.Now(), cpu: cpuSeconds()} }

func (m cpuMeter) util() float64 {
	wall := time.Since(m.wall).Seconds()
	if wall <= 0 {
		return 0
	}
	return (cpuSeconds() - m.cpu) / wall
}

// spinSink keeps the spin loops' results live so the compiler keeps the loops.
var spinSink uint64

// spin is a fixed amount of integer work that touches no shared memory.
func spin(n int, x uint64) uint64 {
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// parSpeedup2 times a spin loop on one goroutine and then the same loop on
// each of two goroutines at once: 2.0 means the host gave the process two
// real cores, 1.0 means the second goroutine only took turns with the first.
func parSpeedup2(iters int) float64 {
	best := func(f func()) float64 {
		b := 0.0
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0).Seconds(); i == 0 || d < b {
				b = d
			}
		}
		return b
	}
	one := best(func() { spinSink += spin(iters, 1) })
	two := best(func() {
		var out [2]uint64
		var wg sync.WaitGroup
		for g := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[g] = spin(iters, uint64(g+1))
			}()
		}
		wg.Wait()
		spinSink += out[0] + out[1]
	})
	if two <= 0 {
		return 0
	}
	return 2 * one / two
}
