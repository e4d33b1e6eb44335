// Command evalrun measures retrieval effectiveness of a distributed
// deployment: it loads built collections, serves them in-process, runs a
// query set through a receptionist under the chosen methodology, and scores
// the merged rankings against relevance judgements — the evaluation loop
// behind the paper's Table 1, usable on any corpus.
//
// Usage:
//
//	evalrun -queries corpus/queries.tsv -qrels corpus/qrels.tsv \
//	        -cols col/AP,col/FR,col/WSJ,col/ZIFF [-mode cv] [-k 1000] [-kprime 100]
//
// Input formats match cmd/trecgen's output: queries.tsv is
// id<TAB>kind<TAB>text; qrels.tsv is queryid<TAB>dockey with dockey
// "collection:localid".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"teraphim/internal/core"
	"teraphim/internal/eval"
	"teraphim/internal/librarian"
	"teraphim/internal/simnet"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "evalrun:", err)
		os.Exit(1)
	}
}

type query struct {
	id, kind, text string
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("evalrun", flag.ContinueOnError)
	queriesPath := fs.String("queries", "", "queries.tsv path (required)")
	qrelsPath := fs.String("qrels", "", "qrels.tsv path (required)")
	cols := fs.String("cols", "", "comma-separated collection directories (required)")
	mode := fs.String("mode", "cv", "methodology: ms, cn, cv or ci")
	k := fs.Int("k", 1000, "ranking depth")
	kPrime := fs.Int("kprime", 100, "CI groups to expand")
	groupSize := fs.Int("G", 10, "CI group size")
	topK := fs.Int("top", 20, "relevant-in-top depth")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queriesPath == "" || *qrelsPath == "" || *cols == "" {
		return fmt.Errorf("-queries, -qrels and -cols are required")
	}

	queries, err := loadQueries(*queriesPath)
	if err != nil {
		return err
	}
	qrels, err := loadQrels(*qrelsPath)
	if err != nil {
		return err
	}

	var libs []*librarian.Librarian
	var names []string
	for _, dir := range strings.Split(*cols, ",") {
		lib, err := librarian.Load(strings.TrimSpace(dir))
		if err != nil {
			return err
		}
		libs = append(libs, lib)
		names = append(names, lib.Name())
	}
	analyzer := libs[0].Engine().Analyzer()
	dialer := librarian.NewInProcessDialer(libs, simnet.LinkConfig{})
	pool, err := core.NewPool(dialer, names, core.Config{Analyzer: analyzer})
	if err != nil {
		return err
	}
	defer func() {
		pool.Close()
		dialer.Wait()
	}()

	// The librarians are in-process links with no faults to tolerate, so
	// the options carry no fault policy.
	var qmode core.Mode
	var opts core.Options
	switch strings.ToLower(*mode) {
	case "ms":
		qmode = core.ModeCV // MS is approximated by CV, which is score-identical
	case "cn":
		qmode = core.ModeCN
	case "cv":
		qmode = core.ModeCV
	case "ci":
		qmode = core.ModeCI
		opts.KPrime = *kPrime
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if qmode != core.ModeCN {
		if _, err := pool.SetupVocabulary(); err != nil {
			return err
		}
	}
	if qmode == core.ModeCI {
		if _, err := pool.SetupCentralIndexRemote(*groupSize); err != nil {
			return err
		}
	}

	byKind := map[string][]query{}
	for _, q := range queries {
		byKind[q.kind] = append(byKind[q.kind], q)
	}
	for kind, qs := range byKind {
		runs := make(map[string]eval.Run, len(qs))
		for _, q := range qs {
			res, err := pool.Query(qmode, q.text, *k, opts)
			if err != nil {
				return fmt.Errorf("query %s: %w", q.id, err)
			}
			run := make(eval.Run, len(res.Answers))
			for i, a := range res.Answers {
				run[i] = a.Key()
			}
			runs[q.id] = run
		}
		s := eval.EvaluateFull(qrels, runs, *k, *topK)
		fmt.Fprintf(w, "%s queries (%s mode): %s; MAP %.2f%%, R-precision %.2f%%\n",
			kind, strings.ToUpper(*mode), s.Summary, s.MAP, s.RPrecision)
	}
	return nil
}

func loadQueries(path string) ([]query, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []query
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("malformed query line %q", line)
		}
		out = append(out, query{id: parts[0], kind: parts[1], text: parts[2]})
	}
	return out, scanner.Err()
}

func loadQrels(path string) (*eval.Qrels, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	qrels := eval.NewQrels()
	scanner := bufio.NewScanner(f)
	for scanner.Scan() {
		line := scanner.Text()
		if line == "" {
			continue
		}
		qid, key, found := strings.Cut(line, "\t")
		if !found {
			return nil, fmt.Errorf("malformed qrels line %q", line)
		}
		qrels.Judge(qid, key)
	}
	return qrels, scanner.Err()
}
