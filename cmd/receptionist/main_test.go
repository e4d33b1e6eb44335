package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/protocol"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

func startFleet(t *testing.T) string {
	t.Helper()
	analyzer := textproc.NewAnalyzer(textproc.WithoutStopwords(), textproc.WithoutStemming())
	var specs []string
	for name, docs := range map[string][]store.Document{
		"news": {
			{Title: "n0", Text: "election results dominated the news"},
			{Title: "n1", Text: "networks covered the election all night"},
		},
		"tech": {
			{Title: "t0", Text: "distributed networks replicate state"},
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

func TestInteractiveCVSession(t *testing.T) {
	libs := startFleet(t)
	var buf bytes.Buffer
	stdin := strings.NewReader("election networks\n\n")
	if err := run(&buf, stdin, []string{"-libs", libs, "-mode", "cv", "-k", "5", "-fetch", "-nostem", "-nostop"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "connected to 2 librarians") {
		t.Fatalf("no connection banner:\n%s", out)
	}
	if !strings.Contains(out, "merged vocabulary") {
		t.Fatalf("no CV setup output:\n%s", out)
	}
	if !strings.Contains(out, "answers from") || !strings.Contains(out, "news:") {
		t.Fatalf("no ranked answers:\n%s", out)
	}
}

func TestInteractiveBooleanSession(t *testing.T) {
	libs := startFleet(t)
	var buf bytes.Buffer
	stdin := strings.NewReader("election AND networks\n")
	if err := run(&buf, stdin, []string{"-libs", libs, "-mode", "cn", "-boolean", "-nostem", "-nostop"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "documents match across 2 librarians") {
		t.Fatalf("no Boolean result:\n%s", out)
	}
	if !strings.Contains(out, "news:1") {
		t.Fatalf("expected news:1 (election AND networks):\n%s", out)
	}
}

// stallingLibrarian answers the Hello handshake like a one-document librarian
// at the current wire version, then reads every request and answers none: a
// stuck librarian, not an old one.
func stallingLibrarian(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, _, err := protocol.ReadMessage(conn); err != nil {
					return
				}
				if _, err := protocol.WriteMessage(conn, &protocol.HelloReply{Name: "stall", NumDocs: 1, Version: protocol.Version}); err != nil {
					return
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestBooleanHonoursTimeout: -boolean runs under the same fault policy as a
// ranked query, so a librarian that never answers fails the query at
// -timeout, and -partial answers from the others.
func TestBooleanHonoursTimeout(t *testing.T) {
	libs := startFleet(t) + ",stall=" + stallingLibrarian(t)
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{nil, "error: "},
		{[]string{"-partial"}, "DEGRADED: answered without 1 librarian(s)"},
	} {
		var buf bytes.Buffer
		args := append([]string{"-libs", libs, "-mode", "cn", "-boolean", "-timeout", "200ms", "-nostem", "-nostop"}, tc.flags...)
		start := time.Now()
		if err := run(&buf, strings.NewReader("election\n"), args); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("%v: Boolean query against a stalled librarian took %v with -timeout 200ms", tc.flags, elapsed)
		}
		if out := buf.String(); !strings.Contains(out, tc.want) {
			t.Fatalf("%v: want %q in output:\n%s", tc.flags, tc.want, out)
		}
	}
}

// TestObsEndpointServesQueryMetrics runs an interactive session with -obs
// and scrapes /metrics while it is live: after one CV query the per-mode
// counter must read 1 in Prometheus text format.
func TestObsEndpointServesQueryMetrics(t *testing.T) {
	libs := startFleet(t)
	// Reserve a port for the obs endpoint so the test knows where to scrape.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	obsAddr := ln.Addr().String()
	ln.Close()

	stdinR, stdinW := io.Pipe()
	scraped := make(chan error, 1)
	go func() {
		defer stdinW.Close()
		if _, err := io.WriteString(stdinW, "election networks\n"); err != nil {
			scraped <- err
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			body, err := scrapeOnce(obsAddr)
			if err == nil && strings.Contains(body, `teraphim_queries_total{mode="CV"} 1`) {
				if !strings.Contains(body, `teraphim_query_stage_seconds_count{stage="merge"} 1`) {
					scraped <- fmt.Errorf("no stage histogram in scrape:\n%s", body)
					return
				}
				scraped <- nil
				return
			}
			if time.Now().After(deadline) {
				scraped <- fmt.Errorf("query counter never reached 1 (last err %v):\n%s", err, body)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	var buf bytes.Buffer
	if err := run(&buf, stdinR, []string{"-libs", libs, "-mode", "cv", "-k", "5",
		"-nostem", "-nostop", "-obs", obsAddr}); err != nil {
		t.Fatal(err)
	}
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "metrics and pprof on") {
		t.Fatalf("no obs banner:\n%s", buf.String())
	}
}

func scrapeOnce(addr string) (string, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return string(body), fmt.Errorf("content type %q", ct)
	}
	return string(body), nil
}

func TestReceptionistValidation(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		why  string
		args []string
	}{
		{"missing -libs", nil},
		{"malformed spec", []string{"-libs", "badspec"}},
		{"unsupported mode", []string{"-libs", "a=x", "-mode", "warp"}},
		{"unreachable librarian", []string{"-libs", "a=127.0.0.1:1"}},
	} {
		if err := run(&buf, strings.NewReader(""), tc.args); err == nil {
			t.Errorf("%s: want error", tc.why)
		}
	}
}

// TestLoadValidation: a -clients run rejects bad flags before any client
// starts, and needs at least one query on stdin.
func TestLoadValidation(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range []struct {
		why  string
		args []string
	}{
		{"missing -libs", []string{"-clients", "2"}},
		{"malformed spec", []string{"-libs", "badspec", "-clients", "2"}},
		{"unsupported mode", []string{"-libs", "a=x", "-clients", "2", "-mode", "warp"}},
		{"negative clients", []string{"-libs", "a=x", "-clients", "-1"}},
		{"zero queries", []string{"-libs", "a=x", "-clients", "2", "-n", "0"}},
	} {
		if err := run(&buf, strings.NewReader(loadQueries), tc.args); err == nil {
			t.Errorf("%s: want error", tc.why)
		}
	}
	if err := run(&buf, strings.NewReader("\n\n"), []string{"-libs", startFleet(t), "-clients", "2"}); err == nil {
		t.Error("empty stdin under -clients: want error")
	}
}

// loadQueries is stdin for a -clients run: a bare query and a
// cmd/trecgen-style TSV line, whose last field is the query.
const loadQueries = "election networks\nQ1\tshort\tdistributed state\nnews\n"

// TestEachQueryTSV: each non-blank stdin line is a query, and a TSV line
// gives its last field.
func TestEachQueryTSV(t *testing.T) {
	var got []string
	if err := eachQuery(strings.NewReader(loadQueries+"\n  \n"), func(q string) { got = append(got, q) }); err != nil {
		t.Fatal(err)
	}
	if want := []string{"election networks", "distributed state", "news"}; !slices.Equal(got, want) {
		t.Fatalf("queries %q, want %q", got, want)
	}
}

// loadRun drives a -clients run over the fleet and returns its report.
func loadRun(t *testing.T, libs string, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	args = append([]string{"-libs", libs, "-nostem", "-nostop"}, args...)
	if err := run(&buf, strings.NewReader(loadQueries), args); err != nil {
		t.Fatalf("%v: %v\n%s", args, err, buf.String())
	}
	return buf.String()
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

// TestLoadMode drives each of the paper's methodologies under -clients and
// pins each one's set-up cost per librarian: the Hello, then the vocabulary
// (CV, CI) and the central index's eight parts (CI).
func TestLoadMode(t *testing.T) {
	libs := startFleet(t)
	for _, tc := range []struct {
		mode  string
		args  []string
		trips string
	}{
		{"CN", []string{"-fetch", "-compressed=false"}, " 2 round trips"},
		{"CV", nil, " 4 round trips"},
		{"CI", []string{"-group", "2", "-kprime", "2"}, " 20 round trips"},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			out := loadRun(t, libs, append([]string{"-mode", tc.mode, "-clients", "3", "-n", "30", "-k", "3"}, tc.args...)...)
			for _, want := range []string{"30 queries, 3 clients, mode " + tc.mode, "throughput", "latency p99", "wire rt/query"} {
				if !strings.Contains(out, want) {
					t.Errorf("missing %q in:\n%s", want, out)
				}
			}
			if line := setupLine(t, out); !strings.Contains(line, tc.trips) {
				t.Errorf("set-up over two librarians: %q, want%s", line, tc.trips)
			}
		})
	}
}

// TestLoadSetupOnce pins the shared-pool contract: the set-up round trips
// do not depend on -clients, because the vocabulary and model exchanges run
// once on the pool, not once per client.
func TestLoadSetupOnce(t *testing.T) {
	libs := startFleet(t)
	var lines []string
	for _, clients := range []string{"1", "8"} {
		lines = append(lines, setupLine(t, loadRun(t, libs, "-mode", "cv", "-fetch", "-clients", clients, "-n", "16", "-k", "3")))
	}
	if lines[0] != lines[1] {
		t.Fatalf("setup cost grew with clients:\n1 client:  %s\n8 clients: %s", lines[0], lines[1])
	}
}

// TestInteractiveCISession: the prompt serves CI as well as CN and CV, and
// reads a TSV line's last field as the query.
func TestInteractiveCISession(t *testing.T) {
	libs := startFleet(t)
	var buf bytes.Buffer
	stdin := strings.NewReader("Q1\tshort\telection networks\n")
	if err := run(&buf, stdin, []string{"-libs", libs, "-mode", "ci", "-group", "1", "-k", "5", "-nostem", "-nostop"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"central index: groups of 1 documents", "answers from 2 librarians", "news:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
