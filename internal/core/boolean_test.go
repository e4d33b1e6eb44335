package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"teraphim/internal/search"
)

// TestBooleanTimeoutBoundsStalledLibrarian: a Boolean query runs under the
// same fault policy as a ranked one, so Options.Timeout bounds an exchange
// with a librarian that has stalled.
func TestBooleanTimeoutBoundsStalledLibrarian(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newReplicaFixture(t, corpus, order, 1, Config{})
	f.chaos.SetDelay(order[0]+"#0", 3*time.Second)
	start := time.Now()
	_, err := f.pool.Boolean(context.Background(), "alpha OR federal", Options{Timeout: 200 * time.Millisecond})
	if elapsed := time.Since(start); err == nil || elapsed > 2*time.Second {
		t.Fatalf("Boolean against a librarian stalled 3s with Timeout 200ms: err=%v after %v", err, elapsed)
	}
}

// TestBooleanPassesAdmission: a Boolean query takes an in-flight slot like a
// ranked one, and sheds with ErrOverloaded — writing nothing — when none is
// free and nothing may queue.
func TestBooleanPassesAdmission(t *testing.T) {
	cf := newCacheFixture(t, Config{Admission: &AdmissionConfig{MaxInFlight: 1, MaxQueue: 0}})
	if err := cf.pool.admission.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := cf.wire.writes.Load()
	if _, err := cf.pool.Boolean(context.Background(), "alpha", Options{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Boolean with the only slot held: err = %v, want ErrOverloaded", err)
	}
	if after := cf.wire.writes.Load(); after != before {
		t.Fatalf("shed Boolean query wrote %d frames", after-before)
	}
	cf.pool.admission.release()
	if _, err := cf.pool.Boolean(context.Background(), "alpha", Options{}); err != nil {
		t.Fatalf("Boolean with the slot free: %v", err)
	}
}

// TestBooleanPartialUnion: with AllowPartial, a Boolean query over a fleet
// with one librarian dead returns the union of the survivors' result sets,
// marked degraded; without it, the query fails.
func TestBooleanPartialUnion(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newReplicaFixture(t, corpus, order, 1, Config{})
	const expr = "alpha OR federal OR wallstreet"
	full, err := f.pool.Boolean(context.Background(), expr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dead := order[1]
	f.chaos.Kill(dead + "#0")
	if _, err := f.pool.Boolean(context.Background(), expr, Options{}); err == nil {
		t.Fatalf("Boolean with %s dead and no AllowPartial: want error", dead)
	}
	res, err := f.pool.Boolean(context.Background(), expr, Options{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.Degraded || len(res.Trace.Failures) != 1 || res.Trace.Failures[0].Librarian != dead {
		t.Fatalf("degraded=%v failures=%+v, want one failure at %s", res.Trace.Degraded, res.Trace.Failures, dead)
	}
	var want []Answer
	for _, a := range full.Answers {
		if a.Librarian != dead {
			want = append(want, a)
		}
	}
	if len(want) == 0 || len(want) == len(full.Answers) || !answersEqual(res.Answers, want) {
		t.Fatalf("degraded union has %d answers, want the %d of %d not at %s",
			len(res.Answers), len(want), len(full.Answers), dead)
	}
}

// TestQueryValidationTable: every entry point rejects the same bad inputs
// with the same typed error, before any frame reaches a librarian. MS rows go
// through MonoServer.Query, which takes neither a mode nor a context; its
// "unsupported mode" cell asks the pool for MS instead.
func TestQueryValidationTable(t *testing.T) {
	cf := newCacheFixture(t, Config{})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	grouped, err := BuildGrouped(cf.termsOf, 10, testAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.pool.Federation().SetupCentralIndex(grouped); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cells := []struct {
		name string
		ctx  context.Context
		mode Mode // zero: the row's own mode
		k    int
		opts Options
		want error
	}{
		{"k=0", nil, 0, 0, Options{}, ErrInvalidK},
		{"k<0", nil, 0, -1, Options{}, ErrInvalidK},
		{"k=2^32", nil, 0, math.MaxUint32 + 1, Options{}, ErrInvalidK},
		{"k=2^32+3", nil, 0, math.MaxUint32 + 4, Options{}, ErrInvalidK},
		{"merge=42", nil, 0, 5, Options{Merge: MergeStrategy(42)}, ErrUnknownMergeStrategy},
		{"evaluator=9", nil, 0, 5, Options{Evaluator: search.Evaluator(9)}, search.ErrUnknownEvaluator},
		{"unsupported mode", nil, Mode(42), 5, Options{}, ErrUnsupportedMode},
		{"cancelled ctx", cancelled, 0, 5, Options{}, context.Canceled},
	}
	for _, row := range []Mode{ModeMS, ModeCN, ModeCV, ModeCI} {
		for _, c := range cells {
			ctx, mode := c.ctx, c.mode
			if ctx == nil {
				ctx = context.Background()
			}
			if mode == 0 {
				mode = row
			}
			before := cf.wire.writes.Load()
			var res *Result
			var err error
			switch {
			case row != ModeMS:
				res, err = cf.pool.QueryContext(ctx, mode, "alpha federal", c.k, c.opts)
			case c.mode != 0:
				res, err = cf.pool.QueryContext(ctx, ModeMS, "alpha federal", c.k, c.opts)
			case c.ctx != nil:
				continue
			default:
				res, err = cf.mono.Query("alpha federal", c.k, c.opts)
			}
			if !errors.Is(err, c.want) || res != nil {
				t.Errorf("%v %s: res=%v err=%v, want %v", row, c.name, res != nil, err, c.want)
			}
			if after := cf.wire.writes.Load(); after != before {
				t.Errorf("%v %s: rejected query wrote %d frames", row, c.name, after-before)
			}
		}
	}
}
