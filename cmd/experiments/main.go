// Command experiments regenerates the paper's evaluation tables on the
// synthetic TREC-like corpus.
//
// Usage:
//
//	experiments [-table all|1|2|3|4|sizes|43split|skipping|threshold|groupsize|compression]
//	            [-seed N] [-scale F] [-long N] [-short N]
//
// -scale multiplies the default corpus size (0.25 runs a quick smoke pass,
// 1.0 is the standard configuration used in EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"teraphim/internal/experiments"
	"teraphim/internal/trecsynth"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	table := fs.String("table", "all", "which table to regenerate")
	seed := fs.Int64("seed", 1998, "corpus generation seed")
	scale := fs.Float64("scale", 1.0, "corpus size multiplier")
	long := fs.Int("long", 0, "override number of long queries (0 = default)")
	short := fs.Int("short", 0, "override number of short queries (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := trecsynth.DefaultConfig()
	cfg.Seed = *seed
	for i := range cfg.Subs {
		cfg.Subs[i].NumDocs = int(float64(cfg.Subs[i].NumDocs) * *scale)
		if cfg.Subs[i].NumDocs < 1 {
			cfg.Subs[i].NumDocs = 1
		}
	}
	if *long > 0 {
		cfg.NumLongQueries = *long
	}
	if *short > 0 {
		cfg.NumShortQueries = *short
	}

	start := time.Now()
	fmt.Fprintf(w, "Building deployment (scale %.2f, seed %d)...\n", *scale, *seed)
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	fmt.Fprintf(w, "Ready in %.1fs: %d documents, %d librarians, %d queries\n\n",
		time.Since(start).Seconds(), r.Pool().Federation().TotalDocs(),
		len(r.Pool().Federation().Librarians()), len(r.Corpus.Queries))

	type section struct {
		name string
		fn   func(io.Writer) error
	}
	sections := []section{
		{"1", r.Table1},
		{"2", r.Table2},
		{"3", r.Table3},
		{"4", r.Table4},
		{"sizes", r.Sizes},
		{"43split", r.Split43},
		{"skipping", r.Skipping},
		{"threshold", r.Threshold},
		{"groupsize", r.GroupSizeAblation},
		{"compression", r.CompressionAblation},
		{"fusion", r.Fusion},
		{"resources", r.ResourceScaling},
		{"freqsorted", r.FreqSorted},
		{"throughput", r.Throughput},
		{"quantized", r.QuantizedWeights},
	}
	ran := false
	for _, s := range sections {
		if *table != "all" && *table != s.name {
			continue
		}
		ran = true
		if err := s.fn(w); err != nil {
			return fmt.Errorf("table %s: %w", s.name, err)
		}
		fmt.Fprintln(w)
	}
	if !ran {
		return fmt.Errorf("unknown table %q", *table)
	}
	return nil
}
