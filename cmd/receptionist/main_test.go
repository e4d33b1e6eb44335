package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
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
	if err := run(&buf, strings.NewReader(""), nil); err == nil {
		t.Fatal("missing -libs: want error")
	}
	if err := run(&buf, strings.NewReader(""), []string{"-libs", "badspec"}); err == nil {
		t.Fatal("malformed spec: want error")
	}
	if err := run(&buf, strings.NewReader(""), []string{"-libs", "a=x", "-mode", "ci"}); err == nil {
		t.Fatal("unsupported mode: want error")
	}
	// Unreachable librarian.
	if err := run(&buf, strings.NewReader(""), []string{"-libs", "a=127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable librarian: want error")
	}
}
