package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"teraphim/internal/librarian"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

// fixture creates two collections, a query file and qrels on disk.
func fixture(t *testing.T) (queries, qrels string, cols []string) {
	t.Helper()
	base := t.TempDir()
	analyzer := textproc.NewAnalyzer(textproc.WithoutStopwords(), textproc.WithoutStemming())
	parts := map[string][]store.Document{
		"A": {
			{Title: "a0", Text: "solar panels generate electricity"},
			{Title: "a1", Text: "wind turbines also generate electricity"},
		},
		"B": {
			{Title: "b0", Text: "coal plants burn fossil fuel"},
			{Title: "b1", Text: "solar farms cover the desert"},
		},
	}
	for name, docs := range parts {
		lib, err := librarian.Build(name, docs, librarian.BuildOptions{Analyzer: analyzer})
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(base, "col-"+name)
		if err := librarian.Save(dir, lib, librarian.SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		cols = append(cols, dir)
	}
	queries = filepath.Join(base, "queries.tsv")
	if err := os.WriteFile(queries, []byte("Q1\tshort\tsolar electricity\nQ2\tshort\tcoal fuel\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	qrels = filepath.Join(base, "qrels.tsv")
	if err := os.WriteFile(qrels, []byte("Q1\tA:0\nQ1\tB:1\nQ2\tB:0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return queries, qrels, cols
}

func TestEvalRunModes(t *testing.T) {
	queries, qrels, cols := fixture(t)
	for _, mode := range []string{"ms", "cv", "cn", "ci"} {
		var buf bytes.Buffer
		err := run(&buf, []string{
			"-queries", queries, "-qrels", qrels,
			"-cols", strings.Join(cols, ","),
			"-mode", mode, "-k", "10", "-G", "2", "-kprime", "2",
		})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		out := buf.String()
		if !strings.Contains(out, "11-pt avg") || !strings.Contains(out, "over 2 queries") {
			t.Fatalf("mode %s output: %s", mode, out)
		}
		// The fixture is trivially retrievable: expect a high average.
		var pct float64
		if _, err := fmt.Sscanf(out[strings.Index(out, "11-pt avg")+len("11-pt avg"):], " %f%%", &pct); err != nil {
			t.Fatalf("cannot parse output %q: %v", out, err)
		}
		if pct < 50 {
			t.Fatalf("mode %s: 11-pt %f%% implausibly low\n%s", mode, pct, out)
		}
	}
}

func TestEvalRunValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, nil); err == nil {
		t.Fatal("missing flags: want error")
	}
	queries, qrels, cols := fixture(t)
	if err := run(&buf, []string{"-queries", queries, "-qrels", qrels, "-cols", strings.Join(cols, ","), "-mode", "bogus"}); err == nil {
		t.Fatal("bad mode: want error")
	}
	if err := run(&buf, []string{"-queries", "/nonexistent", "-qrels", qrels, "-cols", cols[0]}); err == nil {
		t.Fatal("bad queries path: want error")
	}
	// In-process librarians have no failures to tolerate, so evalrun takes
	// no fault policy.
	for _, flag := range []string{"-timeout=1s", "-retries=1", "-backoff=1ms", "-partial"} {
		if err := run(&buf, []string{flag, "-queries", queries, "-qrels", qrels, "-cols", strings.Join(cols, ",")}); err == nil {
			t.Fatalf("%s: want an unknown-flag error", flag)
		}
	}
}

func TestLoaders(t *testing.T) {
	queries, qrels, _ := fixture(t)
	qs, err := loadQueries(queries)
	if err != nil || len(qs) != 2 {
		t.Fatalf("loadQueries: %v, %d", err, len(qs))
	}
	if qs[0].id != "Q1" || qs[0].kind != "short" || qs[0].text != "solar electricity" {
		t.Fatalf("query parse: %+v", qs[0])
	}
	qr, err := loadQrels(qrels)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.IsRelevant("Q1", "A:0") || qr.IsRelevant("Q2", "A:0") {
		t.Fatal("qrels parse wrong")
	}
	// Malformed files are rejected.
	bad := filepath.Join(t.TempDir(), "bad.tsv")
	if err := os.WriteFile(bad, []byte("onlyonefield\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadQueries(bad); err == nil {
		t.Fatal("malformed queries: want error")
	}
	if _, err := loadQrels(bad); err == nil {
		t.Fatal("malformed qrels: want error")
	}
}
