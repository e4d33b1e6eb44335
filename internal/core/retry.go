package core

import (
	"context"
	"errors"
	"time"

	"teraphim/internal/protocol"
)

// maxBackoff caps the exponential retry backoff so a large Options.Backoff
// with several retries cannot stall a query for minutes.
const maxBackoff = 5 * time.Second

// callPolicy holds the fault-tolerance knobs of one query, as resolve left
// them. It lives on the per-query exec (never on shared state), so concurrent
// queries with different policies cannot interfere; setup exchanges (NewPool,
// SetupVocabulary, ...) run with the zero policy — no retries, no partial
// results — because a partially merged vocabulary or central index would
// silently corrupt CV/CI semantics.
type callPolicy struct {
	timeout       time.Duration
	retries       int
	backoff       time.Duration
	allowPartial  bool
	minLibrarians int
	// hedge is the latency quantile beyond which an exchange races a second
	// replica (Options.HedgeAfter); zero disables hedging. Setup exchanges
	// run with the zero policy and therefore never hedge.
	hedge float64
	// batchWindow is how long a rank-phase exchange may linger at the
	// batcher waiting for same-librarian peers (Options.BatchWindow); zero
	// sends every query in its own frame.
	batchWindow time.Duration
}

// backoffDelay is the capped exponential wait before retry number n (1 for
// the first retry). A zero base retries immediately. The base is clamped to
// the cap before any doubling: a near-MaxInt64 base would otherwise
// overflow d *= 2 to a negative duration — i.e. no wait at all — before the
// cap check ever saw it.
func backoffDelay(base time.Duration, n int) time.Duration {
	if base <= 0 || n < 1 {
		return 0
	}
	if base >= maxBackoff {
		return maxBackoff
	}
	d := base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= maxBackoff {
			return maxBackoff
		}
	}
	return d
}

// sleepCtx waits d unless ctx is cancelled first, reporting whether the
// full wait elapsed. Backoff between retry attempts goes through here so a
// cancelled query stops waiting immediately instead of sleeping out its
// (up to 5s) backoff schedule.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// retryableError reports whether a failed exchange is worth redialling and
// re-sending: timeouts, dial failures and transport errors are transient; a
// librarian-reported error is a completed exchange whose answer will not
// change unless the librarian says it might (RemoteError.Retryable).
func retryableError(err error) bool {
	var remote *protocol.RemoteError
	if errors.As(err, &remote) {
		return remote.Retryable
	}
	// A peer at another wire version answers every Hello the same way.
	return !errors.Is(err, protocol.ErrProtocolVersion)
}
