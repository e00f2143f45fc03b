package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wormnet/internal/metrics"
	"wormnet/internal/sim"
)

// TestConcurrentScrapeRace steps an engine whose collector is served by
// metrics.Serve while several scrapers fetch /metrics, /series and
// /debug/pprof/cmdline back to back, the way a Prometheus server and an
// operator hit a live `wormsim -metrics-addr` run. The collector is attached
// through Observe.Attach, the path wormnet.Run uses. Under `go test -race` an
// unsynchronised read of the collector from the HTTP goroutines fails the
// test; without -race it still checks that no scraper ever sees
// wormnet_cycles_total decrease and that every /series body decodes.
func TestConcurrentScrapeRace(t *testing.T) {
	cfg := tracedSweepPoints()[0].Config
	cfg.Measure = 1 << 40 // stepped below until the scrapers are done
	rails := Observe{}.Attach(&cfg, false, true, false)
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := metrics.Serve("127.0.0.1:0", rails.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const scrapers, rounds = 4, 25
	base := "http://" + srv.Addr()
	var done atomic.Int32
	errs := make([]error, scrapers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Add(1)
			errs[i] = scrape(base, rounds)
		}()
	}
	// The engine steps on this goroutine for as long as any scraper runs,
	// so every scrape overlaps live stepping.
	var stepErr error
	for done.Load() < scrapers {
		if stepErr == nil {
			stepErr = eng.Step()
		}
	}
	wg.Wait()
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("scraper %d: %v", i, err)
		}
	}
	if eng.Now() == 0 {
		t.Error("the engine never stepped while being scraped")
	}
}

// scrape fetches the three endpoints rounds times and reports the first
// broken promise: a failed request, a cycle counter below the one this
// scraper read before, or a /series body DecodeSeries refuses.
func scrape(base string, rounds int) error {
	last := int64(-1)
	for r := 0; r < rounds; r++ {
		body, err := get(base + "/metrics")
		if err != nil {
			return err
		}
		cycles, err := cyclesTotal(body)
		if err != nil {
			return err
		}
		if cycles < last {
			return fmt.Errorf("round %d: wormnet_cycles_total went from %d to %d", r, last, cycles)
		}
		last = cycles
		body, err = get(base + "/series")
		if err != nil {
			return err
		}
		if _, err := metrics.DecodeSeries(bytes.NewReader(body)); err != nil {
			return fmt.Errorf("round %d: /series: %v", r, err)
		}
		if _, err := get(base + "/debug/pprof/cmdline"); err != nil {
			return err
		}
	}
	return nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, err
}

// cyclesTotal reads the wormnet_cycles_total sample from a Prometheus text
// exposition.
func cyclesTotal(exposition []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wormnet_cycles_total "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no wormnet_cycles_total sample")
}
