package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a live telemetry endpoint bound to one collector. It serves:
//
//	/metrics      — Prometheus text exposition (version 0.0.4)
//	/status       — JSON Status snapshot (run identity + latest sample)
//	/series       — the sampler ring as JSONL (add ?format=csv for CSV)
//	/debug/pprof/ — the standard runtime profiles
//
// The server runs on its own goroutine and never touches simulation state
// beyond the collector's lock-free counters and mutex-guarded ring, so
// scraping a live run cannot perturb its result.
type Server struct {
	addr string
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts an HTTP exporter for c on addr (e.g. ":9100", or ":0" for an
// ephemeral port). It returns once the listener is bound, so Addr is valid
// immediately.
func Serve(addr string, c *Collector) (*Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		st := c.Snapshot()
		enc.Encode(&st)
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "csv" {
			w.Header().Set("Content-Type", "text/csv")
			c.WriteSeriesCSV(w)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		c.WriteSeriesJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.addr }

// Close shuts the exporter down and waits for the serve goroutine to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
