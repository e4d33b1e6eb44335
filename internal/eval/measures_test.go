package eval

import (
	"math"
	"testing"
)

func TestAveragePrecision(t *testing.T) {
	q := NewQrels()
	judgeAll(q, "q", "a", "b")
	// Relevant at ranks 1 and 4: AP = (1/1 + 2/4) / 2 = 0.75.
	run := Run{"a", "x", "y", "b"}
	if got := AveragePrecision(q, "q", run); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("AP = %f, want 0.75", got)
	}
	// Unfound relevant docs drag AP down: only "a" found of 2.
	if got := AveragePrecision(q, "q", Run{"a"}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("partial AP = %f, want 0.5", got)
	}
	if got := AveragePrecision(q, "unjudged", run); got != 0 {
		t.Fatalf("unjudged AP = %f", got)
	}
}

func TestRPrecision(t *testing.T) {
	q := NewQrels()
	judgeAll(q, "q", "a", "b", "c")
	// R = 3; two of the first three retrieved are relevant.
	run := Run{"a", "x", "b", "c"}
	if got := RPrecision(q, "q", run); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("R-precision = %f, want 2/3", got)
	}
	if got := RPrecision(q, "none", run); got != 0 {
		t.Fatalf("unjudged R-precision = %f", got)
	}
}

func TestEvaluateFull(t *testing.T) {
	q := NewQrels()
	judgeAll(q, "q1", "a")
	judgeAll(q, "q2", "b", "c")
	runs := map[string]Run{
		"q1": {"a"},      // AP 1.0, RP 1.0
		"q2": {"b", "x"}, // AP (1/1)/2 = 0.5, RP 1/2
	}
	s := EvaluateFull(q, runs, 1000, 20)
	if s.Queries != 2 {
		t.Fatalf("Queries = %d", s.Queries)
	}
	if math.Abs(s.MAP-75.0) > 1e-9 {
		t.Fatalf("MAP = %f, want 75", s.MAP)
	}
	if math.Abs(s.RPrecision-75.0) > 1e-9 {
		t.Fatalf("RPrecision = %f, want 75", s.RPrecision)
	}
	empty := EvaluateFull(NewQrels(), map[string]Run{}, 1000, 20)
	if empty.Queries != 0 || empty.MAP != 0 {
		t.Fatalf("empty evaluation: %+v", empty)
	}
}
