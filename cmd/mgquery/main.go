// Command mgquery evaluates ranked (or Boolean) queries against one
// collection built by mgbuild — the mono-server MG experience.
//
// Usage:
//
//	mgquery -col collection/ [-k 20] [-boolean] [-show] "query terms"
//	mgquery -col collection/            # interactive: queries from stdin
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"teraphim/internal/librarian"
)

func main() {
	if err := run(os.Stdout, os.Stdin, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mgquery:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, stdin io.Reader, args []string) error {
	fs := flag.NewFlagSet("mgquery", flag.ContinueOnError)
	col := fs.String("col", "", "collection directory (required)")
	k := fs.Int("k", 20, "number of answers")
	boolean := fs.Bool("boolean", false, "evaluate as a Boolean expression")
	show := fs.Bool("show", false, "print document text, not just titles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *col == "" {
		return fmt.Errorf("-col is required")
	}
	lib, err := librarian.Load(*col)
	if err != nil {
		return err
	}

	query := strings.Join(fs.Args(), " ")
	if query != "" {
		return answer(w, lib, query, *k, *boolean, *show)
	}
	scanner := bufio.NewScanner(stdin)
	fmt.Fprintf(w, "%s> ", lib.Name())
	for scanner.Scan() {
		q := strings.TrimSpace(scanner.Text())
		if q == "" {
			fmt.Fprintf(w, "%s> ", lib.Name())
			continue
		}
		if err := answer(w, lib, q, *k, *boolean, *show); err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
		}
		fmt.Fprintf(w, "%s> ", lib.Name())
	}
	return scanner.Err()
}

func answer(w io.Writer, lib *librarian.Librarian, query string, k int, boolean, show bool) error {
	if boolean {
		docs, stats, err := lib.Engine().Boolean(query)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d documents match (%d postings decoded)\n", len(docs), stats.PostingsDecoded)
		if len(docs) > k {
			docs = docs[:k]
		}
		for _, d := range docs {
			title, err := lib.Store().Title(d)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %6d  %s\n", d, title)
		}
		return nil
	}
	ranking, err := lib.Engine().Rank(query, k, nil)
	results, stats := ranking.Results, ranking.Stats
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d answers (%d postings decoded, %d candidates)\n",
		len(results), stats.PostingsDecoded, stats.CandidateDocs)
	for i, r := range results {
		title, err := lib.Store().Title(r.Doc)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%3d. %-30s %.4f\n", i+1, title, r.Score)
		if show {
			doc, err := lib.Store().Fetch(r.Doc)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "     %s\n", firstLine(doc.Text))
		}
	}
	return nil
}

func firstLine(text string) string {
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		text = text[:i]
	}
	if len(text) > 120 {
		text = text[:120] + "..."
	}
	return text
}
