package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestIngestUnderQueryLoad(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, []string{
		"-seed", "40", "-docs", "120", "-batch", "10",
		"-queue", "4", "-fanin", "2", "-minseg", "10",
		"-compact",
	})
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"160 docs (40 seeded + 120 streamed)",
		"ingest rate",
		"merges",
		"compacted to             1 segment(s)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestIngestRejectsBadFlags(t *testing.T) {
	if err := run(&bytes.Buffer{}, []string{"-docs", "0"}); err == nil {
		t.Fatal("zero -docs accepted")
	}
}
