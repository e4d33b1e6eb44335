package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"teraphim/internal/librarian"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

func startLibrarians(t *testing.T) string {
	t.Helper()
	analyzer := textproc.NewAnalyzer(textproc.WithoutStopwords(), textproc.WithoutStemming())
	var specs []string
	for name, docs := range map[string][]store.Document{
		"A": {
			{Title: "a0", Text: "solar panels generate clean electricity"},
			{Title: "a1", Text: "wind turbines generate renewable power"},
		},
		"B": {
			{Title: "b0", Text: "hydro dams store renewable energy"},
		},
	} {
		lib, err := librarian.Build(name, docs, librarian.BuildOptions{Analyzer: analyzer})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := librarian.Serve(lib, ln)
		t.Cleanup(func() { srv.Close() })
		specs = append(specs, name+"="+srv.Addr().String())
	}
	return strings.Join(specs, ",")
}

func writeQueries(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "queries.txt")
	content := "renewable energy\nQ1\tshort\tsolar electricity\nwind power\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStressDrivesLoad(t *testing.T) {
	libs := startLibrarians(t)
	queries := writeQueries(t)
	var buf bytes.Buffer
	err := run(&buf, []string{
		"-libs", libs, "-queryfile", queries,
		"-mode", "cv", "-clients", "3", "-n", "30", "-k", "5",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"30 queries, 3 clients", "throughput", "latency p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// setupLine extracts the "setup ... round trips" report line.
func setupLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "setup") {
			return line
		}
	}
	t.Fatalf("no setup line in:\n%s", out)
	return ""
}

// TestStressSetupOnce pins the shared-federation contract: the number of
// setup round trips must not depend on -clients, because vocabulary and
// model exchanges happen once on the pool, not once per client.
func TestStressSetupOnce(t *testing.T) {
	libs := startLibrarians(t)
	queries := writeQueries(t)
	var lines []string
	for _, clients := range []string{"1", "8"} {
		var buf bytes.Buffer
		err := run(&buf, []string{
			"-libs", libs, "-queryfile", queries,
			"-mode", "cv", "-clients", clients, "-n", "16", "-k", "3",
		})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, setupLine(t, buf.String()))
	}
	if lines[0] != lines[1] {
		t.Fatalf("setup cost grew with clients:\n1 client:  %s\n8 clients: %s", lines[0], lines[1])
	}
}

func TestStressCIMode(t *testing.T) {
	libs := startLibrarians(t)
	queries := writeQueries(t)
	var buf bytes.Buffer
	err := run(&buf, []string{
		"-libs", libs, "-queryfile", queries,
		"-mode", "ci", "-clients", "4", "-n", "20", "-k", "3", "-group", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"20 queries, 4 clients, mode CI", "throughput"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Per librarian: the Hello, the vocabulary and the central index's
	// eight parts.
	if line := setupLine(t, out); !strings.Contains(line, " 20 round trips") {
		t.Errorf("two librarians' CI set-up: %q, want 20 round trips", line)
	}
}

func TestStressCNMode(t *testing.T) {
	libs := startLibrarians(t)
	queries := writeQueries(t)
	var buf bytes.Buffer
	err := run(&buf, []string{
		"-libs", libs, "-queryfile", queries,
		"-mode", "cn", "-clients", "2", "-n", "10", "-fetch",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "10 queries") {
		t.Fatalf("output: %s", buf.String())
	}
}

func TestStressValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, nil); err == nil {
		t.Fatal("missing flags: want error")
	}
	if err := run(&buf, []string{"-libs", "A=1.2.3.4:1", "-queryfile", "/nonexistent"}); err == nil {
		t.Fatal("bad query file: want error")
	}
	queries := writeQueries(t)
	if err := run(&buf, []string{"-libs", "bad-spec", "-queryfile", queries}); err == nil {
		t.Fatal("malformed lib spec: want error")
	}
	if err := run(&buf, []string{"-libs", "A=x", "-queryfile", queries, "-mode", "warp"}); err == nil {
		t.Fatal("bad mode: want error")
	}
	if err := run(&buf, []string{"-libs", "A=x", "-queryfile", queries, "-clients", "0"}); err == nil {
		t.Fatal("zero clients: want error")
	}
}

func TestLoadQueriesTSV(t *testing.T) {
	path := writeQueries(t)
	qs, err := loadQueries(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("loaded %d queries", len(qs))
	}
	if qs[1] != "solar electricity" {
		t.Fatalf("TSV query parsed as %q", qs[1])
	}
}
