package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

// readyLine is the one line of the output that reads a clock.
var readyLine = regexp.MustCompile(`(?m)^Ready in [0-9.]+s: `)

// TestPaperTablesPinned runs every section of the command on a small corpus
// and compares the output with testdata/tables.golden byte for byte, the
// set-up time stripped: a change to any table is a golden change that has
// to be explained. go test ./cmd/experiments -update rewrites the file.
func TestPaperTablesPinned(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-table", "all", "-scale", "0.05", "-long", "8", "-short", "12"}); err != nil {
		t.Fatal(err)
	}
	got := readyLine.ReplaceAll(out.Bytes(), []byte("Ready in <t>: "))
	golden := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./cmd/experiments -update to record it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("tables differ from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}
