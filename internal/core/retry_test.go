package core

import (
	"math"
	"testing"
	"time"
)

// TestBackoffDelayTable pins the capped exponential schedule, including the
// overflow regression: a base near MaxInt64 used to double into a negative
// duration — i.e. retry with no wait at all — before the cap check ran.
func TestBackoffDelayTable(t *testing.T) {
	cases := []struct {
		name string
		base time.Duration
		n    int
		want time.Duration
	}{
		{"zero base", 0, 1, 0},
		{"negative base", -time.Second, 3, 0},
		{"n zero", 10 * time.Millisecond, 0, 0},
		{"first retry", 10 * time.Millisecond, 1, 10 * time.Millisecond},
		{"second retry doubles", 10 * time.Millisecond, 2, 20 * time.Millisecond},
		{"third retry doubles again", 10 * time.Millisecond, 3, 40 * time.Millisecond},
		{"doubling reaches cap", 2 * time.Second, 3, maxBackoff},
		{"doubling under cap", 2 * time.Second, 2, 4 * time.Second},
		{"base at cap", maxBackoff, 1, maxBackoff},
		{"base above cap", 6 * time.Second, 1, maxBackoff},
		{"base above cap later retry", 6 * time.Second, 7, maxBackoff},
		{"base near MaxInt64", math.MaxInt64 - 1, 2, maxBackoff},
		{"base MaxInt64", math.MaxInt64, 5, maxBackoff},
		{"half MaxInt64 would overflow", math.MaxInt64 / 2, 3, maxBackoff},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := backoffDelay(tc.base, tc.n); got != tc.want {
				t.Fatalf("backoffDelay(%v, %d) = %v, want %v", tc.base, tc.n, got, tc.want)
			}
		})
	}
}

// TestBackoffDelayNeverNegativeOrUncapped sweeps bases across the whole
// duration range: whatever the inputs, the delay stays in [0, maxBackoff].
func TestBackoffDelayNeverNegativeOrUncapped(t *testing.T) {
	bases := []time.Duration{
		1, time.Microsecond, time.Millisecond, time.Second,
		maxBackoff - 1, maxBackoff, maxBackoff + 1,
		math.MaxInt64 / 3, math.MaxInt64 / 2, math.MaxInt64 - 1, math.MaxInt64,
	}
	for _, base := range bases {
		for n := 1; n <= 64; n++ {
			d := backoffDelay(base, n)
			if d < 0 || d > maxBackoff {
				t.Fatalf("backoffDelay(%v, %d) = %v, outside [0, %v]", base, n, d, maxBackoff)
			}
		}
	}
}

// TestPolicyForClampsNegatives: negative Timeout and Backoff are treated
// like zero, exactly as negative Retries already were — a negative timeout
// would otherwise set every conn deadline in the past and record librarians
// as failed without ever asking them.
func TestPolicyForClampsNegatives(t *testing.T) {
	policyFor := func(opts Options) callPolicy {
		p, err := resolve(&Federation{}, ModeCN, 10, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p.policy
	}
	p := policyFor(Options{Timeout: -time.Second, Retries: -4, Backoff: -time.Minute})
	if p.timeout != 0 || p.retries != 0 || p.backoff != 0 {
		t.Fatalf("negative knobs not clamped: %+v", p)
	}
	// Positive values pass through untouched.
	p = policyFor(Options{Timeout: time.Second, Retries: 2, Backoff: 5 * time.Millisecond})
	if p.timeout != time.Second || p.retries != 2 || p.backoff != 5*time.Millisecond {
		t.Fatalf("positive knobs mangled: %+v", p)
	}
	if p.allowPartial {
		t.Fatal("allowPartial set without AllowPartial or MinLibrarians")
	}
	// MinLibrarians implies partial results, with or without the flag.
	p = policyFor(Options{MinLibrarians: 2})
	if !p.allowPartial || p.minLibrarians != 2 {
		t.Fatalf("MinLibrarians did not imply allowPartial: %+v", p)
	}
}

// TestNegativeTimeoutQueriesStillSucceed is the end-to-end regression for
// the clamp: a query with a negative timeout behaves like one with none.
func TestNegativeTimeoutQueriesStillSucceed(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	res, err := f.recep.Query(ModeCN, "alpha federal", 5, Options{Timeout: -time.Second, Backoff: -time.Hour})
	if err != nil {
		t.Fatalf("negative timeout failed the query: %v", err)
	}
	if len(res.Answers) == 0 || len(res.Trace.Failures) != 0 {
		t.Fatalf("answers=%d failures=%d, want answers and no failures", len(res.Answers), len(res.Trace.Failures))
	}
}
