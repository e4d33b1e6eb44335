package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"teraphim/internal/obs"
)

// ErrOverloaded is returned by the query path when admission control sheds a
// request: the in-flight limit is reached and the request cannot wait — the
// queue is full, the configured queue wait elapsed, or the request's own
// context deadline expired (or cannot be met) while it was still queued.
// Test with errors.Is; a shed request consumed no librarian resources and is
// safe to retry elsewhere or later.
var ErrOverloaded = errors.New("core: overloaded")

// AdmissionConfig bounds concurrent query evaluation at the receptionist —
// the broker-side overload protection of the paper's "multiple users at
// capacity" regime. Instead of letting every arrival pile onto the
// connection pool until deadlines blow collectively, at most MaxInFlight
// queries run at once, at most MaxQueue wait for a slot, and the rest shed
// immediately with ErrOverloaded while admitted queries keep their latency.
type AdmissionConfig struct {
	// MaxInFlight is the number of queries evaluated concurrently; it must
	// be positive.
	MaxInFlight int
	// MaxQueue bounds how many queries may wait for an in-flight slot.
	// Zero queues nothing: the limit full means shed now.
	MaxQueue int
	// MaxWait caps how long a queued query waits before being shed. Zero
	// waits until the query's own context deadline (or forever without
	// one). A queued query additionally sheds as soon as its context
	// deadline passes — a request whose deadline cannot be met must not
	// consume a slot just to time out inside.
	MaxWait time.Duration
}

// admission is the in-flight limiter of one pool. The semaphore channel
// holds the in-flight slots; the queue is accounted with a CAS-bounded
// counter so a full queue sheds without ever blocking.
type admission struct {
	sem      chan struct{}
	maxQueue int64
	maxWait  time.Duration
	done     <-chan struct{} // pool's done channel; Close unblocks waiters

	// queued is the strict queue bound (CAS-incremented so concurrent
	// arrivals cannot overshoot); the gauge mirrors it for /metrics.
	queued atomic.Int64

	inFlight   *obs.Gauge
	queueDepth *obs.Gauge
	shed       *obs.Counter
	waitHist   *obs.Histogram
}

func newAdmission(cfg AdmissionConfig, done <-chan struct{}, m *Metrics) *admission {
	return &admission{
		sem:        make(chan struct{}, cfg.MaxInFlight),
		maxQueue:   int64(cfg.MaxQueue),
		maxWait:    cfg.MaxWait,
		done:       done,
		inFlight:   m.admissionInFlight,
		queueDepth: m.admissionQueueDepth,
		shed:       m.admissionShed,
		waitHist:   m.admissionWait,
	}
}

// acquire admits one query or sheds it. On success the caller owns an
// in-flight slot and must release() it when the query completes (however it
// completes).
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.sem <- struct{}{}:
		a.inFlight.Inc()
		return nil
	default:
	}
	// All slots are taken: join the bounded queue, or shed. The CAS loop
	// makes the bound strict under concurrent arrivals.
	for {
		n := a.queued.Load()
		if n >= a.maxQueue {
			a.shed.Inc()
			return fmt.Errorf("%w: %d in flight and %d queued", ErrOverloaded, cap(a.sem), n)
		}
		if a.queued.CompareAndSwap(n, n+1) {
			break
		}
	}
	a.queueDepth.Inc()
	defer func() {
		a.queued.Add(-1)
		a.queueDepth.Dec()
	}()

	// The wait budget is the smaller of MaxWait and the time left until the
	// request's own deadline: waiting longer than either can only convert a
	// fast shed into a slow failure.
	wait := a.maxWait
	if deadline, ok := ctx.Deadline(); ok {
		until := time.Until(deadline)
		if until <= 0 {
			a.shed.Inc()
			return fmt.Errorf("%w: deadline already passed while queued: %w", ErrOverloaded, context.DeadlineExceeded)
		}
		if wait == 0 || until < wait {
			wait = until
		}
	}
	var timeout <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	start := time.Now()
	select {
	case a.sem <- struct{}{}:
		a.waitHist.ObserveDuration(time.Since(start))
		a.inFlight.Inc()
		return nil
	case <-timeout:
		a.shed.Inc()
		return fmt.Errorf("%w: queued %s without an in-flight slot", ErrOverloaded, time.Since(start).Round(time.Millisecond))
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The deadline expired while queued: this is load shedding (the
			// system could not serve in time), not a caller decision.
			a.shed.Inc()
			return fmt.Errorf("%w: deadline expired while queued: %w", ErrOverloaded, ctx.Err())
		}
		return ctx.Err()
	case <-a.done:
		return ErrPoolClosed
	}
}

// release frees the slot taken by a successful acquire.
func (a *admission) release() {
	<-a.sem
	a.inFlight.Dec()
}
