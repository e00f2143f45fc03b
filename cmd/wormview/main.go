// Command wormview renders what a run recorded: `wormview trace` a
// flight-recorder event stream, `wormview metrics` a sampled time series,
// `wormview incidents` a deadlock incident report (or a trace it replays
// into one). Each reads the one file named, or stdin, and prints to stdout.
// Errors go to stderr naming the subcommand and the input, with exit status
// 1; an unknown subcommand or a bad flag exits 2, and `-h` lists the flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// A view registers its flags and returns the function that renders its
// input once they are parsed.
type view func(fs *flag.FlagSet) func(in *input) error

var views = map[string]view{
	"trace":     traceView,
	"metrics":   metricsView,
	"incidents": incidentsView,
}

func main() {
	var v view
	if len(os.Args) > 1 {
		v = views[os.Args[1]]
	}
	if v == nil {
		fmt.Fprintln(os.Stderr, "usage: wormview trace|metrics|incidents [flags] [file]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("wormview "+os.Args[1], flag.ExitOnError)
	render := v(fs)
	fs.Parse(os.Args[2:])
	if err := run(fs.Args(), render); err != nil {
		fmt.Fprintf(os.Stderr, "wormview %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

// input is a view's one input: the file named, stdin, or a temporary spool
// of stdin that the view can seek in.
type input struct {
	name  string
	f     *os.File
	spool bool
}

// run renders the at most one file in args, else stdin, then closes it and
// removes any spool, whatever render returned. Render's errors are
// prefixed with the input's name.
func run(args []string, render func(*input) error) error {
	if len(args) > 1 {
		return errors.New("at most one input file (or stdin)")
	}
	in := &input{name: "<stdin>", f: os.Stdin}
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		in = &input{name: args[0], f: f}
	}
	err := render(in)
	in.f.Close()
	if in.spool {
		os.Remove(in.f.Name())
	}
	if err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	return nil
}

// rewindable makes the input seekable for views that read it more than
// once: stdin is copied to a temporary file, which run removes.
func (in *input) rewindable() error {
	if in.f != os.Stdin {
		return nil
	}
	spool, err := os.CreateTemp("", "wormview-*.jsonl")
	if err != nil {
		return err
	}
	in.f, in.spool = spool, true
	if _, err := io.Copy(spool, os.Stdin); err != nil {
		return fmt.Errorf("spooling stdin: %v", err)
	}
	_, err = spool.Seek(0, io.SeekStart)
	return err
}

// word returns yes if cond holds, else no: the two-valued words (TRUE or
// FALSE, regressive or progressive, delivered or requeued) the trace and
// incidents views print alike.
func word(cond bool, yes, no string) string {
	if cond {
		return yes
	}
	return no
}

// printMean prints label and the mean of n episodes' cycles summing to sum;
// nothing when there are none.
func printMean(label string, sum, n int64) {
	if n > 0 {
		fmt.Printf("%s%.1f cycles mean over %d episode(s)\n", label, float64(sum)/float64(n), n)
	}
}
