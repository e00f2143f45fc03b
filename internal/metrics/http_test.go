package metrics

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestServerEndpoints(t *testing.T) {
	c, _ := meteredCollector(t, 100, 250)
	srv, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	body, ctype := get(t, base+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ctype)
	}
	if !strings.Contains(body, "wormnet_messages_delivered_total 250") {
		t.Errorf("/metrics missing delivered counter:\n%s", body)
	}
	if !strings.Contains(body, `wormnet_info{detector="test"} 1`) {
		t.Errorf("/metrics missing info metric")
	}

	body, _ = get(t, base+"/status")
	if !strings.Contains(body, `"detector": "test"`) || !strings.Contains(body, `"cycle": 200`) {
		t.Errorf("/status unexpected:\n%s", body)
	}

	body, _ = get(t, base+"/series")
	if got := len(strings.Split(strings.TrimRight(body, "\n"), "\n")); got != 3 {
		t.Errorf("/series returned %d lines, want 3:\n%s", got, body)
	}
	if _, err := DecodeSeries(strings.NewReader(body)); err != nil {
		t.Errorf("/series does not decode: %v", err)
	}

	body, ctype = get(t, base+"/series?format=csv")
	if ctype != "text/csv" {
		t.Errorf("/series?format=csv Content-Type = %q", ctype)
	}
	if !strings.HasPrefix(body, "cycle,") {
		t.Errorf("CSV series missing header:\n%s", body)
	}

	if body, _ = get(t, base+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
}
