package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"wormnet/internal/sim"
)

const (
	journalMagic   = "wormnet-harness"
	journalVersion = 2 // 2: each record carries its run's description
)

// header is the first line of a journal: enough of the sweep spec to refuse
// resuming against a different sweep.
type header struct {
	Journal    string `json:"journal"`
	Version    int    `json:"version"`
	Points     int    `json:"points"`
	Replicates int    `json:"replicates"`
	BaseSeed   uint64 `json:"baseSeed"`
}

// record is one completed run: either Result or Error is set. Run is the
// run's description (describe), which a resume must reproduce.
type record struct {
	Point  int         `json:"point"`
	Rep    int         `json:"rep"`
	Key    string      `json:"key"`
	Seed   uint64      `json:"seed"`
	Run    string      `json:"run"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// describe is the description a journal record carries: the fingerprint
// (sim.Fingerprint) of the run's configuration with its seed, which names
// the topology, router, routing, detector, workload, load, recovery, phases
// and seed. A configuration that builds no engine has none ("") and fails
// its run with the reason. It is computed only for journaled sweeps.
func describe(cfg sim.Config, seed uint64) string {
	cfg.Seed = seed
	id, err := sim.Fingerprint(cfg)
	if err != nil {
		return ""
	}
	return id
}

// readJournal loads the journal at path and validates it against the
// expected header. A missing file yields no records and no error (a fresh
// sweep). A truncated final line — the signature of a killed process — is
// dropped; corruption anywhere else is an error. validLen is the byte
// length of the well-formed prefix: resuming truncates the file there
// before appending, so a dropped partial tail cannot corrupt new records.
func readJournal(path string, want header) (recs []record, validLen int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 1<<20)
	lineNo := 0
	for {
		line, rerr := r.ReadBytes('\n')
		if len(line) > 0 {
			if rerr != nil {
				// The writer emits each line (payload + newline) in one
				// write, so a line without its newline is a torn tail from
				// an interrupted process: drop it.
				return recs, validLen, nil
			}
			lineNo++
			if lineNo == 1 {
				var got header
				if uerr := json.Unmarshal(line, &got); uerr != nil || got.Journal != journalMagic {
					return nil, 0, fmt.Errorf("harness: %s is not a harness journal", path)
				}
				if got.Version != want.Version {
					return nil, 0, fmt.Errorf("harness: journal %s has version %d, want %d", path, got.Version, want.Version)
				}
				if got.Points != want.Points || got.Replicates != want.Replicates || got.BaseSeed != want.BaseSeed {
					return nil, 0, fmt.Errorf("harness: journal %s records a %d-point x%d sweep with seed %d; this sweep is %d-point x%d with seed %d",
						path, got.Points, got.Replicates, got.BaseSeed, want.Points, want.Replicates, want.BaseSeed)
				}
			} else {
				var rec record
				if uerr := json.Unmarshal(line, &rec); uerr != nil {
					return nil, 0, fmt.Errorf("harness: journal %s line %d: %v", path, lineNo, uerr)
				}
				recs = append(recs, rec)
			}
			validLen += int64(len(line))
		}
		if rerr == io.EOF {
			return recs, validLen, nil
		}
		if rerr != nil {
			return nil, 0, rerr
		}
	}
}

// journalWriter appends records as one JSON line each, flushed per record so
// a kill loses at most the run in flight.
type journalWriter struct {
	f  *os.File
	bw *bufio.Writer
}

// openJournal opens path for appending. When resume is false (or the file
// was missing/empty) the journal is recreated with a fresh header; when
// resuming, the file is first truncated to validLen so a torn tail from the
// interrupted process cannot run into newly appended records.
func openJournal(path string, resume bool, validLen int64, hdr header) (*journalWriter, error) {
	flags := os.O_CREATE | os.O_WRONLY
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: open journal: %w", err)
	}
	if resume {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("harness: truncate journal tail: %w", err)
		}
		if _, err := f.Seek(validLen, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("harness: seek journal: %w", err)
		}
	}
	w := &journalWriter{f: f, bw: bufio.NewWriter(f)}
	if !resume {
		if err := w.writeLine(hdr); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

func (w *journalWriter) writeLine(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("harness: encode journal line: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.bw.Write(data); err != nil {
		return fmt.Errorf("harness: write journal: %w", err)
	}
	return w.bw.Flush()
}

func (w *journalWriter) append(rec record) error { return w.writeLine(rec) }

func (w *journalWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
