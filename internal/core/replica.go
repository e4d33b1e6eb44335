package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// replicaEjectAfter is the number of consecutive exchange failures after
// which a replica is ejected from routing.
const replicaEjectAfter = 3

// DefaultReplicaProbeAfter is how long an ejected replica sits out before one
// probe exchange is allowed to test it for readmission.
const DefaultReplicaProbeAfter = 500 * time.Millisecond

// hedgeMinSamples gates hedging until the latency tracker has seen enough
// exchanges to estimate a quantile; before that a "p99" would just be the
// max of a handful of warmup calls and hedges would fire at random.
const hedgeMinSamples = 16

// replica is one endpoint serving a subcollection. Several replicas serve
// the same librarian (same documents, by contract); the router spreads
// exchanges across them and routes around the ones that are failing.
type replica struct {
	endpoint string
	// tags is the lease semaphore, one token per exchange in flight: its
	// capacity is what the endpoint's MaxConnsPerLibrarian connections carry
	// at once, pipelineDepth each. Hedges take a tag only if one is free
	// right now, which is what keeps them from queue-jumping regular
	// exchanges.
	tags chan struct{}
	// pipes is the set of connections to this endpoint.
	pipes pipeSet
	// inflight counts leases currently out — the load signal the
	// power-of-two-choices pick compares.
	inflight atomic.Int64

	mu           sync.Mutex
	consecFails  int
	ejectedUntil time.Time // zero while healthy
	probing      bool      // one readmission probe is in flight
}

func newReplica(endpoint string, maxConns int) *replica {
	r := &replica{endpoint: endpoint, tags: make(chan struct{}, maxConns*pipelineDepth)}
	r.pipes.init()
	return r
}

// selectableAt reports whether the router may route a new exchange here:
// healthy, or ejected but due a readmission probe that nobody has claimed.
func (r *replica) selectableAt(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ejectedUntil.IsZero() {
		return true
	}
	return !r.probing && !now.Before(r.ejectedUntil)
}

// claimProbe finalises a pick: a healthy replica needs no claim; an ejected
// one whose probe window has opened is claimed for exactly one probing
// exchange (two concurrent picks cannot both probe it). False means the
// replica was snatched or re-ejected between the selectable check and here.
func (r *replica) claimProbe(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ejectedUntil.IsZero() {
		return true
	}
	if r.probing || now.Before(r.ejectedUntil) {
		return false
	}
	r.probing = true
	return true
}

// router picks which replica serves each exchange for one librarian:
// power-of-two-choices over the healthy replicas, preferring the lower
// in-flight count, with passive health tracking (consecutive-failure
// ejection, timed probe readmission). The replica set is fixed when the
// pool is built.
type router struct {
	lib        string
	probeAfter time.Duration
	metrics    *Metrics

	// now is the router's clock; tests inject a fake so ejection windows
	// and probe timing need no wall-clock sleeps.
	now func() time.Time

	set []*replica

	// rmu guards the PRNG, the only mutable pick-path state besides the
	// replicas themselves.
	rmu sync.Mutex
	rng *rand.Rand

	// latency tracks this librarian's exchange latencies for the hedge
	// delay quantile. Replicas share one tracker: the hedge question is
	// "is this exchange slow for this subcollection", whichever endpoint
	// serves it.
	latency latencyTracker
}

func newRouter(lib string, endpoints []string, maxConns int, m *Metrics, seed int64) *router {
	rt := &router{
		lib:        lib,
		probeAfter: DefaultReplicaProbeAfter,
		metrics:    m,
		now:        time.Now,
		rng:        rand.New(rand.NewSource(seed)),
	}
	rt.set = make([]*replica, len(endpoints))
	for i, ep := range endpoints {
		rt.set[i] = newReplica(ep, maxConns)
	}
	return rt
}

// pick returns the replica to serve the next exchange. avoid names an
// endpoint to route around when alternatives exist — retries avoid the
// endpoint that just failed them, hedges avoid the primary they are racing.
// When every replica is ejected the router fails open and routes to one
// anyway: a wrong guess costs one retry, refusing would cost the whole query.
func (rt *router) pick(avoid string) *replica {
	now := rt.now()
	cands := make([]*replica, 0, len(rt.set))
	for _, r := range rt.set {
		if r.endpoint != avoid && r.selectableAt(now) {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 && avoid != "" {
		// The avoided endpoint is the only healthy one — use it.
		for _, r := range rt.set {
			if r.endpoint == avoid && r.selectableAt(now) {
				cands = append(cands, r)
			}
		}
	}
	for len(cands) > 0 {
		r := rt.pickP2C(cands)
		if r.claimProbe(now) {
			return r
		}
		// Lost a probe-claim race; drop this replica and re-pick.
		live := cands[:0]
		for _, c := range cands {
			if c != r {
				live = append(live, c)
			}
		}
		cands = live
	}
	// Everything is ejected (or probes are already claimed): fail open.
	for _, r := range rt.set {
		if r.endpoint != avoid {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		cands = rt.set
	}
	return rt.pickP2C(cands)
}

// pickP2C samples two distinct candidates and returns the one with fewer
// exchanges in flight (ties go to the first sample, which is uniform, so
// equally loaded replicas are picked uniformly).
func (rt *router) pickP2C(cands []*replica) *replica {
	if len(cands) == 1 {
		return cands[0]
	}
	rt.rmu.Lock()
	i := rt.rng.Intn(len(cands))
	j := rt.rng.Intn(len(cands) - 1)
	rt.rmu.Unlock()
	if j >= i {
		j++
	}
	a, b := cands[i], cands[j]
	if b.inflight.Load() < a.inflight.Load() {
		return b
	}
	return a
}

// reportSuccess records a completed exchange: the replica is healthy (a
// previously ejected one is readmitted) and the exchange latency feeds the
// hedge-delay quantile.
func (rt *router) reportSuccess(r *replica, d time.Duration) {
	r.mu.Lock()
	readmitted := !r.ejectedUntil.IsZero()
	r.consecFails = 0
	r.ejectedUntil = time.Time{}
	r.probing = false
	r.mu.Unlock()
	if readmitted {
		rt.metrics.replicaReadmissions.Inc()
	}
	rt.latency.observe(d)
}

// reportFailure counts a failed exchange against the replica's health:
// replicaEjectAfter consecutive failures eject it until a probe, probeAfter
// later, succeeds. Cancelled exchanges must not come through here — a hedge
// loser or an abandoned query says nothing about the replica's health.
func (rt *router) reportFailure(r *replica) {
	now := rt.now()
	r.mu.Lock()
	r.consecFails++
	wasOut := !r.ejectedUntil.IsZero()
	wasProbe := r.probing
	r.probing = false
	eject := r.consecFails >= replicaEjectAfter
	if eject {
		r.ejectedUntil = now.Add(rt.probeAfter)
	}
	r.mu.Unlock()
	// Count transitions into ejection (first crossing of the threshold, or
	// a failed readmission probe), not every failure while already out.
	if eject && (!wasOut || wasProbe) {
		rt.metrics.replicaEjections.Inc()
	}
}

// hedgeDelay returns the wait before a hedge launches: the q-quantile of
// the librarian's recent exchange latencies, or zero (no hedging yet) until
// hedgeMinSamples exchanges have been observed.
func (rt *router) hedgeDelay(q float64) time.Duration {
	return rt.latency.quantile(q)
}

// Latency-tracker geometry: 64 log-spaced buckets from 50µs growing ×1.3
// cover 50µs to ~20min, so one fixed-size array answers any quantile of any
// realistic exchange latency within ~30% (one bucket's width).
const (
	latBuckets = 64
	latGrowth  = 1.3
)

const latBase = 50 * time.Microsecond

// latencyTracker is a streaming quantile estimator over exchange latencies:
// a fixed array of log-spaced buckets bumped with atomics — no locks, no
// allocation, safe for every exchange goroutine to feed concurrently. A
// quantile is answered by walking the cumulative counts and returning the
// matched bucket's upper bound, so the estimate is conservative (a hedge
// never fires earlier than the true quantile by more than bucket rounding).
type latencyTracker struct {
	count   atomic.Uint64
	buckets [latBuckets]atomic.Uint64
}

func latBucketFor(d time.Duration) int {
	if d <= latBase {
		return 0
	}
	b := int(math.Ceil(math.Log(float64(d)/float64(latBase)) / math.Log(latGrowth)))
	if b < 0 {
		b = 0
	}
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

func latUpperBound(bucket int) time.Duration {
	return time.Duration(float64(latBase) * math.Pow(latGrowth, float64(bucket)))
}

func (lt *latencyTracker) observe(d time.Duration) {
	lt.buckets[latBucketFor(d)].Add(1)
	lt.count.Add(1)
}

// quantile returns the upper bound of the bucket holding the q-quantile, or
// zero while fewer than hedgeMinSamples observations have been recorded (or
// q is out of (0,1)). Counts are read without a snapshot; the approximation
// error from concurrent writers is at most a few in-flight observations.
func (lt *latencyTracker) quantile(q float64) time.Duration {
	n := lt.count.Load()
	if n < hedgeMinSamples || q <= 0 || q >= 1 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < latBuckets; i++ {
		cum += lt.buckets[i].Load()
		if cum >= rank {
			return latUpperBound(i)
		}
	}
	return latUpperBound(latBuckets - 1)
}
