package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"teraphim/internal/protocol"
)

// exec is the execution context of a single query (or setup exchange): the
// shared federation state, the pool to lease connections from, and the
// resolved plan — fault-tolerance policy included — for this call only. It lives on one goroutine's
// stack per query, which is what makes concurrent queries race-free —
// nothing per-query is ever written to shared structures.
type exec struct {
	ctx  context.Context
	fed  *Federation
	pool *Pool
	// plan is the query's resolved Options; setup exchanges run with the
	// zero plan, whose zero policy never retries, hedges or degrades.
	plan
	// blobs is non-nil when the query fetches text (Options.Fetch): the
	// documents rank replies carried (see fetchTop), then any fetched later.
	blobs map[docKey]protocol.DocBlob

	// hedgesLaunched/hedgesWon accumulate across this query's phases (the
	// per-librarian exchange goroutines bump them concurrently) and are
	// published into the Trace by callParallel.
	hedgesLaunched atomic.Int64
	hedgesWon      atomic.Int64
}

// docKey names a document by owner (index into Federation.libs) and local id.
type docKey struct {
	lib int
	doc uint32
}

// overFetch bounds the documents the librarians attach to their rank replies
// for one query at about overFetch x k in total. A variable only so that
// BenchmarkWideFleetOverFetch can sweep it (DESIGN §13 has the numbers).
var overFetch = 4

// fetchTop is how many of its best results each of the asked librarians
// attaches text for: all k while asked <= overFetch — any one librarian may
// own the whole answer — and ceil(overFetch*k/asked) on wider fleets. The
// per-librarian links run in parallel, so over-fetching costs bytes and
// librarian store work, not latency; fetchAnswers requests what is missing.
// A two-round pool attaches none.
func (e *exec) fetchTop(asked int) uint32 {
	if e.blobs == nil || asked == 0 || e.pool.twoRound {
		return 0
	}
	return uint32(min(e.k, (overFetch*e.k+asked-1)/asked))
}

// callParallel sends one request to each named librarian concurrently and
// waits for every outcome, appending per-attempt Call records to trace. A
// librarian whose exchange fails is retried per the policy (redial, capped
// exponential backoff); one that exhausts its attempts is recorded in
// trace.Failures. Whether a failure fails the whole call depends on the
// policy: without AllowPartial the first failure is returned as an error
// (an ErrorReply surfaces as a *protocol.RemoteError); with it, the
// surviving replies are returned and trace.Degraded is set, provided at
// least MinLibrarians answered the rank phase.
func (e *exec) callParallel(trace *Trace, phase Phase, names []string, makeReq func(name string) protocol.Message) (map[string]protocol.Message, error) {
	type outcome struct {
		name  string
		calls []Call
		reply protocol.Message
		fail  *Failure
	}
	// Every name is checked before any exchange starts: an error return
	// leaves no exchange running unobserved.
	for _, name := range names {
		if _, ok := e.fed.byName[name]; !ok {
			return nil, fmt.Errorf("core: unknown librarian %q", name)
		}
	}
	results := make(chan outcome, len(names))
	var wg sync.WaitGroup
	for _, name := range names {
		req := makeReq(name)
		wg.Add(1)
		go func(name string, req protocol.Message) {
			defer wg.Done()
			calls, reply, fail := e.callLibrarian(name, phase, req)
			results <- outcome{name: name, calls: calls, reply: reply, fail: fail}
		}(name, req)
	}
	wg.Wait()
	close(results)

	replies := make(map[string]protocol.Message, len(names))
	var failures []Failure
	var maxShip, maxWait time.Duration
	for out := range results {
		trace.Calls = append(trace.Calls, out.calls...)
		// The librarians run in parallel, so the stage's wall-clock
		// contribution is the slowest librarian's; a librarian's own attempts
		// run serially, so its ship/wait times sum across retries.
		var ship, wait time.Duration
		for _, c := range out.calls {
			ship += c.Ship
			wait += c.Wait
		}
		if ship > maxShip {
			maxShip = ship
		}
		if wait > maxWait {
			maxWait = wait
		}
		if out.fail != nil {
			failures = append(failures, *out.fail)
			continue
		}
		replies[out.name] = out.reply
	}
	trace.Stages.Ship += maxShip
	trace.Stages.Wait += maxWait
	// Publish the query-cumulative hedge accounting (assignment, not add:
	// the counters accumulate across this exec's phases into one trace).
	trace.Hedges = int(e.hedgesLaunched.Load())
	trace.HedgeWins = int(e.hedgesWon.Load())
	// Keep trace ordering deterministic for tests and cost accounting; the
	// stable sort preserves attempt order within a (phase, librarian) pair.
	sort.SliceStable(trace.Calls, func(i, j int) bool {
		if trace.Calls[i].Phase != trace.Calls[j].Phase {
			return trace.Calls[i].Phase < trace.Calls[j].Phase
		}
		return trace.Calls[i].Librarian < trace.Calls[j].Librarian
	})
	if len(failures) == 0 {
		return replies, nil
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i].Librarian < failures[j].Librarian })
	trace.Failures = append(trace.Failures, failures...)
	if !e.policy.allowPartial {
		f := failures[0]
		return nil, fmt.Errorf("core: librarian %q: %w", f.Librarian, f.Err)
	}
	trace.Degraded = true
	if phase == PhaseRank {
		min := e.policy.minLibrarians
		if min < 1 {
			min = 1
		}
		if len(replies) < min {
			return nil, fmt.Errorf("core: only %d of %d librarians answered, need %d",
				len(replies), len(names), min)
		}
	}
	return replies, nil
}

// callLibrarian drives the named librarian through a request/response
// exchange under the policy. Each attempt leases its own replica through
// the librarian's router — a retry after a replica failure prefers a
// different endpoint than the one that just failed, so it usually lands on
// a healthy sibling instead of redialling the corpse. When the policy
// hedges, an attempt may race two replicas (attemptHedged); a hedge is not
// a retry — its calls carry the Hedge flag and RetryAttempts skips them.
// It returns every attempt's Call records plus either the reply or the
// Failure that exhausted the attempts.
func (e *exec) callLibrarian(name string, phase Phase, req protocol.Message) ([]Call, protocol.Message, *Failure) {
	maxAttempts := e.policy.retries + 1
	var calls []Call
	var lastErr error
	avoid := ""
	// Batch-eligible exchanges go through the batcher instead of hedging (a
	// batched frame carries other clients' queries, whose work a hedge would
	// duplicate); a retry goes alone, steering round the endpoint that failed.
	batch := e.batchable(phase, req)
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			if !sleepCtx(e.ctx, backoffDelay(e.policy.backoff, attempt-1)) {
				return calls, nil, &Failure{Librarian: name, Phase: phase, Attempts: attempt - 1, Err: e.ctx.Err()}
			}
		}
		var got []Call
		var reply protocol.Message
		var endpoint string
		var err error
		if batch && avoid == "" {
			got, reply, endpoint, err = e.pool.batch.do(e, name, req)
		} else {
			got, reply, endpoint, err = e.attemptHedged(name, phase, req, avoid)
		}
		calls = append(calls, got...)
		if err == nil {
			return calls, reply, nil
		}
		lastErr = err
		if endpoint != "" {
			avoid = endpoint
		}
		if errors.Is(err, ErrPoolClosed) {
			return calls, nil, &Failure{Librarian: name, Phase: phase, Attempts: attempt, Err: err}
		}
		if !retryableError(err) {
			return calls, nil, &Failure{Librarian: name, Phase: phase, Attempts: attempt, Err: err}
		}
		// A cancelled context surfaces here as a deadline error on the
		// stream; report the cancellation itself rather than retrying a
		// query nobody is waiting for.
		if ctxErr := e.ctx.Err(); ctxErr != nil {
			return calls, nil, &Failure{Librarian: name, Phase: phase, Attempts: attempt, Err: ctxErr}
		}
	}
	return calls, nil, &Failure{Librarian: name, Phase: phase, Attempts: maxAttempts, Err: lastErr}
}

// errNoFreeSlot is the sentinel a try-only lease (a hedge) gets when every
// tag of the picked replica is out. It never surfaces to callers: a hedge
// that cannot get a tag simply does not launch.
var errNoFreeSlot = errors.New("core: no free replica slot")

// attempt performs one exchange against one replica of the named librarian:
// pick (router, steering around avoid), lease one of the replica's tags — the
// unit of concurrency, so capacity is what its connections can carry — get
// placed on a connection, exchange, report the outcome to the router's
// passive health tracking, release. The tag wait — the queueing delay when
// every tag is out — is observed into the acquire-wait histogram and aborts
// if ctx is cancelled first; tryOnly makes the take non-blocking (hedges
// never queue behind regular exchanges). onLease, when non-nil, observes the
// chosen endpoint as soon as the lease is taken — the hedge path uses it to
// route the hedge away from the primary and to count only hedges that
// actually got a tag. The endpoint used is returned even on failure so the
// retry loop can avoid it.
func (e *exec) attempt(ctx context.Context, name string, phase Phase, req protocol.Message, avoid string, tryOnly bool, onLease func(endpoint string)) ([]Call, protocol.Message, string, error) {
	p := e.pool
	rt, ok := p.routers[name]
	if !ok {
		return nil, nil, "", fmt.Errorf("core: unknown librarian %q", name)
	}
	rep := rt.pick(avoid)
	if tryOnly {
		select {
		case rep.tags <- struct{}{}:
		default:
			return nil, nil, "", errNoFreeSlot
		}
	} else {
		waitStart := time.Now()
		select {
		case rep.tags <- struct{}{}:
		case <-p.done:
			return nil, nil, "", ErrPoolClosed
		case <-ctx.Done():
			return nil, nil, "", ctx.Err()
		}
		p.metrics.acquireWait.ObserveDuration(time.Since(waitStart))
	}
	rep.inflight.Add(1)
	if onLease != nil {
		onLease(rep.endpoint)
	}

	var calls []Call
	var reply protocol.Message
	pc, pend, hs, err := p.pipeFor(ctx, rep, e.policy.timeout)
	if _, isHello := req.(*protocol.Hello); err == nil && isHello && hs != nil {
		// The connection is new and its Hello asked what req asks: use
		// that reply, so setup costs one round trip per connection,
		// exactly like the seed.
		pc.forget(pend)
		reply = hs.reply
		calls = []Call{{
			Librarian: name, Replica: rep.endpoint, Phase: phase, ReqType: req.Type(),
			ReqBytes: hs.wrote, RespBytes: hs.read, Ship: hs.ship, Wait: hs.wait,
		}}
	} else if err == nil {
		calls = make([]Call, 1)
		calls[0], reply, err = pc.exchange(ctx, e.policy.timeout, name, phase, req, pend)
	}
	rep.inflight.Add(-1)
	<-rep.tags

	if err == nil {
		rt.reportSuccess(rep, calls[0].Ship+calls[0].Wait)
		return calls, reply, rep.endpoint, nil
	}
	var remote *protocol.RemoteError
	switch {
	case errors.As(err, &remote):
		// The peer answered, so the exchange completed: the transport is
		// healthy and its latency is a real observation.
		rt.reportSuccess(rep, calls[0].Ship+calls[0].Wait)
	case ctx.Err() == nil && !errors.Is(err, ErrPoolClosed):
		// Health accounting never counts a cancelled attempt against the
		// replica: a hedge loser or an abandoned query says nothing about
		// the endpoint. Pool shutdown says nothing either.
		rt.reportFailure(rep)
	}
	return calls, reply, rep.endpoint, err
}

// attemptHedged is one policy attempt that may race two replicas: the
// primary runs immediately; if the policy hedges (Options.HedgeAfter) and
// the primary outlives the librarian's tracked latency quantile, a hedge
// launches against a different replica and the first reply wins, the loser
// cancelled through its context (its exchange is abandoned; an untagged
// connection is discarded with it). The hedge takes a tag only if one is
// free right now — hedging adds no load to a saturated replica set — and a
// hedge that never got a tag is not counted as launched.
func (e *exec) attemptHedged(name string, phase Phase, req protocol.Message, avoid string) ([]Call, protocol.Message, string, error) {
	rt := e.pool.routers[name]
	var delay time.Duration
	if q := e.policy.hedge; q > 0 && rt != nil && len(rt.set) > 1 {
		delay = rt.hedgeDelay(q)
	}
	if delay <= 0 {
		return e.attempt(e.ctx, name, phase, req, avoid, false, nil)
	}
	type outcome struct {
		calls []Call
		reply protocol.Message
		ep    string
		err   error
		hedge bool
	}
	primaryCtx, cancelPrimary := context.WithCancel(e.ctx)
	hedgeCtx, cancelHedge := context.WithCancel(e.ctx)
	defer cancelPrimary()
	defer cancelHedge()
	results := make(chan outcome, 2)
	var primaryEndpoint atomic.Value
	go func() {
		calls, reply, ep, err := e.attempt(primaryCtx, name, phase, req, avoid, false, func(ep string) {
			primaryEndpoint.Store(ep)
		})
		results <- outcome{calls: calls, reply: reply, ep: ep, err: err}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var outs []outcome
	raced := false
	select {
	case out := <-results:
		// Primary finished inside its latency budget (or failed — that is
		// the retry layer's business, not a reason to hedge).
		outs = append(outs, out)
	case <-timer.C:
		raced = true
		avoidEp, _ := primaryEndpoint.Load().(string)
		go func() {
			calls, reply, ep, err := e.attempt(hedgeCtx, name, phase, req, avoidEp, true, func(string) {
				e.hedgesLaunched.Add(1)
				e.pool.metrics.hedgeLaunched.Inc()
			})
			for i := range calls {
				calls[i].Hedge = true
			}
			results <- outcome{calls: calls, reply: reply, ep: ep, err: err, hedge: true}
		}()
	}
	if raced {
		// First success cancels the other side; we still wait for the loser
		// so its Call lands in the trace and no goroutine outlives the query.
		for len(outs) < 2 {
			out := <-results
			outs = append(outs, out)
			if out.err == nil && len(outs) == 1 {
				if out.hedge {
					cancelPrimary()
				} else {
					cancelHedge()
				}
			}
		}
	}
	var calls []Call
	var winner, primary *outcome
	for i := range outs {
		out := &outs[i]
		calls = append(calls, out.calls...)
		if !out.hedge {
			primary = out
		}
		if out.err == nil && winner == nil {
			winner = out
		}
	}
	if winner != nil {
		if winner.hedge {
			e.hedgesWon.Add(1)
			e.pool.metrics.hedgeWon.Inc()
		}
		return calls, winner.reply, winner.ep, nil
	}
	// Both sides failed (or the only attempt did). Surface the primary's
	// error: the hedge's no-free-slot sentinel is not a query error, and
	// the primary's failure is the one the retry policy should classify.
	return calls, nil, primary.ep, primary.err
}

// classifyReply turns a decoded reply into the exchange outcome: an
// ErrorReply becomes a *protocol.RemoteError, and the reply's librarian-side
// statistics and fetch traffic are recorded into the Call.
func classifyReply(call *Call, reply protocol.Message) (protocol.Message, error) {
	switch m := reply.(type) {
	case *protocol.ErrorReply:
		return nil, &protocol.RemoteError{Message: m.Message}
	case *protocol.RankReply:
		call.LibStats = m.Stats
		call.countDocs(m.Docs)
	case *protocol.BooleanReply:
		call.LibStats = m.Stats
	case *protocol.FetchReply:
		call.countDocs(m.Docs)
	}
	return reply, nil
}

func (c *Call) countDocs(docs []protocol.DocBlob) {
	c.DocsFetched = len(docs)
	for _, d := range docs {
		c.DocBytes += len(d.Data)
	}
}

// fetchAnswers fills Title and Text of res.Answers in place: from the
// documents the rank replies carried, and through one FetchDocs round for
// exactly the answers still without one (a two-round pool, a document over
// the librarian's byte budget, a fleet too wide for fetchTop).
func (e *exec) fetchAnswers(res *Result) error {
	// Requests are sent in one block per librarian, per the paper's
	// "documents should be bundled into blocks" finding.
	missing := make([][]uint32, len(e.fed.libs))
	for _, a := range res.Answers {
		idx := e.fed.byName[a.Librarian].idx
		if _, ok := e.blobs[docKey{idx, a.LocalDoc}]; ok {
			res.Trace.PiggybackedDocs++
		} else {
			missing[idx] = append(missing[idx], a.LocalDoc)
		}
	}
	var names []string
	for i, docs := range missing {
		if len(docs) > 0 {
			slices.Sort(docs)
			names = append(names, e.fed.libs[i].name)
		}
	}
	res.Trace.FallbackFetches = len(names)
	replies, err := e.callParallel(&res.Trace, PhaseFetch, names, func(name string) protocol.Message {
		return &protocol.FetchDocs{Docs: missing[e.fed.byName[name].idx], Compressed: e.compressed}
	})
	if err != nil {
		return err
	}
	for name, reply := range replies {
		fr, ok := reply.(*protocol.FetchReply)
		if !ok {
			return fmt.Errorf("core: librarian %q answered FetchDocs with %v", name, reply.Type())
		}
		idx := e.fed.byName[name].idx
		for _, blob := range fr.Docs {
			e.blobs[docKey{idx, blob.Doc}] = blob
		}
	}
	for i := range res.Answers {
		a := &res.Answers[i]
		blob, ok := e.blobs[docKey{e.fed.byName[a.Librarian].idx, a.LocalDoc}]
		if !ok {
			if _, answered := replies[a.Librarian]; !answered {
				// The librarian failed its fetch exchange and the policy
				// allowed a partial result (recorded in Trace.Failures);
				// the answer keeps its rank and score, without text.
				continue
			}
			return fmt.Errorf("core: librarian %q did not return doc %d", a.Librarian, a.LocalDoc)
		}
		a.Title = blob.Title
		if blob.Compressed {
			model := e.fed.modelFor(a.Librarian)
			if model == nil {
				return fmt.Errorf("core: compressed transfer from %q but SetupModels has not run", a.Librarian)
			}
			text, err := model.DecompressDoc(blob.Data)
			if err != nil {
				return fmt.Errorf("core: decompress %s: %w", a.Key(), err)
			}
			a.Text = text
		} else {
			a.Text = string(blob.Data)
		}
	}
	return nil
}
