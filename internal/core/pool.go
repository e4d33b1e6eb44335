package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"teraphim/internal/huffman"
	"teraphim/internal/index"
	"teraphim/internal/obs"
	"teraphim/internal/protocol"
	"teraphim/internal/selection"
	"teraphim/internal/simnet"
	"teraphim/internal/textproc"
)

// DefaultMaxConnsPerLibrarian bounds how many connections a Pool keeps per
// librarian when Config.MaxConnsPerLibrarian is zero.
const DefaultMaxConnsPerLibrarian = 4

// ErrPoolClosed is returned by Query / Setup* after Close.
var ErrPoolClosed = errors.New("core: pool is closed")

// Pool is the receptionist: the one handle that brokers queries to a fixed
// set of librarians (Query, QueryContext, Boolean), runs the setup exchanges
// that build its shared Federation (SetupVocabulary, SetupModels,
// SetupCentralIndexRemote). Federation state is read through Federation().
//
// It owns every connection the federation holds to its librarians and
// bounds them at MaxConnsPerLibrarian per replica endpoint. An exchange
// leases one of the endpoint's tags, is placed on a connection with room for
// it (pipeFor: reuse, dial under the cap, or share one) and runs
// there; see pipeline.go. A connection whose stream was interrupted
// mid-message (dirty) is closed, never reused — the next frame on it would
// decode garbage — and the fault-tolerance layer's retry redials.
//
// When Config.Replicas gives a librarian several endpoints, each exchange goes
// through the librarian's router: power-of-two-choices over the healthy
// replicas, with failing endpoints ejected and probed back in. A librarian
// without configured replicas routes every exchange to the single endpoint
// named after it — exactly the pre-replication behaviour.
//
// A Pool is safe for concurrent use. Close may race with in-flight queries:
// it closes every connection (failing what is pending on them), and
// subsequent exchanges fail with ErrPoolClosed.
type Pool struct {
	fed    *Federation
	dialer simnet.Dialer
	max    int
	// twoRound is Config.TwoRoundFetch.
	twoRound bool
	// batch coalesces concurrent rank-phase queries to the same librarian
	// into BatchQuery frames.
	batch *batcher

	// routers[name] picks the replica endpoint serving each exchange. The
	// map and the replica sets behind it are fixed by NewPool.
	routers map[string]*router
	// done is closed by Close so blocked tag leases fail fast.
	done chan struct{}

	// metrics is never nil: a pool without a configured registry gets a
	// private one, so instrumentation code needs no nil checks and metrics
	// are available retroactively via Metrics().
	metrics       *Metrics
	slowThreshold time.Duration
	slowLog       io.Writer

	// cache and admission are nil unless configured — both are opt-in
	// overload protection, checked on the query path only.
	cache     *resultCache
	admission *admission

	// closing makes Close idempotent.
	closing sync.Once
}

// NewPool dials nothing eagerly beyond the Hello handshake: it contacts
// every named librarian once to learn document counts, fixes the global
// numbering (concatenation order = the order of names), and returns a Pool
// whose Federation is ready for CN queries. CV/CI/compressed-fetch need the
// corresponding Setup* call first.
func NewPool(dialer simnet.Dialer, names []string, cfg Config) (*Pool, error) {
	cfg, err := resolveConfig(names, cfg)
	if err != nil {
		return nil, err
	}
	fed := &Federation{analyzer: cfg.Analyzer, byName: make(map[string]*libMeta, len(names))}
	p := &Pool{
		fed:           fed,
		dialer:        dialer,
		max:           cfg.MaxConnsPerLibrarian,
		twoRound:      cfg.TwoRoundFetch,
		routers:       make(map[string]*router, len(names)),
		done:          make(chan struct{}),
		metrics:       newMetrics(cfg.Metrics),
		slowThreshold: cfg.SlowQueryThreshold,
		slowLog:       os.Stderr,
	}
	p.batch = newBatcher(p)
	if cfg.Cache != nil {
		p.cache = newResultCache(*cfg.Cache, p.metrics)
	}
	if cfg.Admission != nil {
		p.admission = newAdmission(*cfg.Admission, p.done, p.metrics)
	}
	for i, name := range names {
		li := &libMeta{name: name, idx: i}
		fed.libs = append(fed.libs, li)
		fed.byName[name] = li
		// The router PRNG seed is derived from the librarian's position, so
		// replica selection is deterministic given a fixed query schedule —
		// the property tests rely on it, production does not care.
		p.routers[name] = newRouter(name, cfg.Replicas[name], p.max, p.metrics, int64(i)+1)
	}

	// Hello exchange: one call per librarian, zero policy (setup is never
	// partial — see DESIGN.md). The libMeta writes below happen before the
	// Pool escapes to any other goroutine.
	e := &exec{ctx: context.Background(), fed: fed, pool: p}
	var trace Trace
	replies, err := e.callParallel(&trace, PhaseSetup, names, func(string) protocol.Message {
		return &protocol.Hello{Version: protocol.Version}
	})
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("core: connect: %w", err)
	}
	var offset uint32
	for _, li := range fed.libs {
		hello, ok := replies[li.name].(*protocol.HelloReply)
		if !ok {
			p.Close()
			return nil, fmt.Errorf("core: librarian %q answered Hello with %v", li.name, replies[li.name].Type())
		}
		li.numDocs = hello.NumDocs
		li.offset = offset
		offset += hello.NumDocs
	}
	fed.totalDocs = offset
	return p, nil
}

// resolveConfig is the one reader of a Pool's Config: it validates cfg against
// names before NewPool allocates, registers or dials anything, and returns a
// copy with every default applied, Replicas naming every librarian's endpoints.
func resolveConfig(names []string, cfg Config) (Config, error) {
	if len(names) == 0 {
		return cfg, errors.New("core: no librarians")
	}
	// No endpoint may serve two librarians: a replica answers for exactly
	// one subcollection, or global numbering (and every merge) breaks.
	replicas := make(map[string][]string, len(names))
	owner := make(map[string]string)
	for _, name := range names {
		if _, dup := replicas[name]; dup {
			return cfg, fmt.Errorf("core: duplicate librarian %q", name)
		}
		replicas[name] = cfg.Replicas[name]
		if len(replicas[name]) == 0 {
			replicas[name] = []string{name}
		}
		for _, ep := range replicas[name] {
			if other, dup := owner[ep]; dup {
				return cfg, fmt.Errorf("core: endpoint %q serves both %q and %q", ep, other, name)
			}
			owner[ep] = name
		}
	}
	for name := range cfg.Replicas {
		if _, ok := replicas[name]; !ok {
			return cfg, fmt.Errorf("core: Replicas names unknown librarian %q", name)
		}
	}
	cfg.Replicas = replicas
	if adm := cfg.Admission; adm != nil {
		if adm.MaxInFlight <= 0 {
			return cfg, fmt.Errorf("core: admission MaxInFlight must be positive, got %d", adm.MaxInFlight)
		}
		cfg.Admission = &AdmissionConfig{MaxInFlight: adm.MaxInFlight, MaxQueue: max(adm.MaxQueue, 0), MaxWait: max(adm.MaxWait, 0)}
	}
	if c := cfg.Cache; c != nil {
		cfg.Cache = &CacheConfig{
			MaxEntries: cmp.Or(max(c.MaxEntries, 0), DefaultCacheEntries),
			MaxBytes:   cmp.Or(max(c.MaxBytes, 0), DefaultCacheBytes),
		}
	}
	if cfg.Analyzer == nil {
		cfg.Analyzer = textproc.NewAnalyzer()
	}
	cfg.MaxConnsPerLibrarian = cmp.Or(max(cfg.MaxConnsPerLibrarian, 0), DefaultMaxConnsPerLibrarian)
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return cfg, nil
}

// Federation returns the shared federation state served by this pool.
func (p *Pool) Federation() *Federation { return p.fed }

// Session returns the pool itself: held for benchmark/load.go until ROADMAP
// item 1a.
func (p *Pool) Session() *Pool { return p }

// Query is QueryContext under context.Background.
func (p *Pool) Query(mode Mode, query string, k int, opts Options) (*Result, error) {
	return p.QueryContext(context.Background(), mode, query, k, opts)
}

// QueryContext evaluates a ranked query under the given methodology (CN, CV
// or CI), returning the top k answers merged across librarians. It is safe
// for any number of concurrent callers. Cancelling ctx aborts the query
// promptly — admission waits, connection-slot waits, retry backoffs and
// blocked reads all observe it — and a ctx deadline bounds every librarian
// exchange in addition to Options.Timeout. Interrupted streams are discarded,
// never leaked or reused.
func (p *Pool) QueryContext(ctx context.Context, mode Mode, query string, k int, opts Options) (*Result, error) {
	pl, err := resolve(p.fed, mode, k, opts)
	if err != nil {
		return nil, err
	}
	if ctx, err = live(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	// The cache is consulted before admission control: a hit costs no
	// librarian work, so serving it even when the pool is saturated is
	// exactly the overload relief the cache exists for. The key is the
	// resolved plan, so option spellings that evaluate identically share an
	// entry.
	key := pl.cacheKey
	var epoch uint64
	if p.cache != nil {
		key.query = strings.Join(p.fed.analyzer.Terms(nil, query), " ")
		epoch = p.fed.Epoch() + p.cache.gen.Load()
		if res, ok := p.cache.get(key, epoch); ok {
			p.observeQuery(mode, query, time.Since(start), res, nil)
			return res, nil
		}
	}
	if adm := p.admission; adm != nil {
		if err := adm.acquire(ctx); err != nil {
			return nil, err
		}
		defer adm.release()
	}
	e := &exec{ctx: ctx, fed: p.fed, pool: p, plan: pl}
	if pl.fetch {
		e.blobs = make(map[docKey]protocol.DocBlob)
	}
	res := &Result{}
	res.Trace.Mode = mode
	switch mode {
	case ModeCN:
		err = e.queryCN(res, query)
	case ModeCV:
		err = e.queryCV(res, query)
	case ModeCI:
		err = e.queryCI(res, query)
	}
	if err == nil && pl.fetch {
		err = e.fetchAnswers(res)
	}
	p.observeQuery(mode, query, time.Since(start), res, err)
	if err != nil {
		return nil, err
	}
	if p.cache != nil && !res.Trace.Degraded {
		// Stamped with the epoch read before evaluation: if setup state
		// changed underneath this query, the stamp is already stale and the
		// entry dies on its first lookup rather than serving a mixed answer.
		p.cache.put(key, epoch, res)
	}
	return res, nil
}

// Boolean evaluates expr at every librarian and unions the result sets (§1 of
// the paper: no global information or score merging is required). Answers
// come in global-document order, without scores or text. Only the
// fault-policy fields of opts apply — Timeout, Retries, Backoff,
// AllowPartial, MinLibrarians, HedgeAfter; the others are validated and
// ignored. Fan-out is always full, results are never cached, and the query
// passes admission control like a ranked one.
func (p *Pool) Boolean(ctx context.Context, expr string, opts Options) (*Result, error) {
	// Boolean evaluation has no k and is inherently central-nothing: 1 and
	// ModeCN only satisfy resolve's checks.
	pl, err := resolve(p.fed, ModeCN, 1, opts)
	if err != nil {
		return nil, err
	}
	if ctx, err = live(ctx); err != nil {
		return nil, err
	}
	if adm := p.admission; adm != nil {
		if err := adm.acquire(ctx); err != nil {
			return nil, err
		}
		defer adm.release()
	}
	e := &exec{ctx: ctx, fed: p.fed, pool: p, plan: pl}
	return e.boolean(expr)
}

// live defaults a nil ctx and fails an already-cancelled one up front.
// Without this, cancellation is only observed through connection deadlines
// and slot waits, and a fast in-process exchange can win that race and
// "succeed" for a caller that already gave up.
func live(ctx context.Context) (context.Context, error) {
	if ctx == nil {
		return context.Background(), nil
	}
	return ctx, ctx.Err()
}

// Metrics returns the pool's observability surface. It is always non-nil:
// when Config.Metrics was not set the instruments live on a private
// registry, read through Metrics' accessors.
func (p *Pool) Metrics() *Metrics { return p.metrics }

// InvalidateCache drops every cached result in O(1). Wire it to
// Librarian.OnUpdate (or call it after any out-of-band collection
// change) so answers computed over the old subcollections are never served
// again; setup exchanges (vocabulary, models, central index) invalidate
// automatically through the federation epoch. A no-op when no cache is
// configured.
func (p *Pool) InvalidateCache() {
	if p.cache != nil {
		p.cache.invalidate()
	}
}

// CacheStats snapshots the result cache's counters. ok is false when no
// cache is configured.
func (p *Pool) CacheStats() (stats CacheStats, ok bool) {
	if p.cache == nil {
		return CacheStats{}, false
	}
	return p.cache.stats(), true
}

// isClosed reports whether Close has been called.
func (p *Pool) isClosed() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Close shuts the pool down: every connection is closed, which fails the
// exchanges pending on it with a transport error, and whatever they try next
// fails with ErrPoolClosed. Close is idempotent and safe to call while queries
// are in flight: no panic, no leaked connections.
func (p *Pool) Close() error {
	p.closing.Do(func() {
		close(p.done)
		for _, rt := range p.routers {
			for _, r := range rt.set {
				r.pipes.closeAll()
			}
		}
	})
	return nil
}

// SetupVocabulary fetches every librarian's vocabulary and installs the
// merged global statistics (the CV methodology's central state). The new
// vocabulary becomes visible to queries atomically. Setup runs with the
// zero policy: a partially merged vocabulary would silently change CV
// scores rather than visibly degrade them.
func (p *Pool) SetupVocabulary() (Trace, error) {
	e := &exec{ctx: context.Background(), fed: p.fed, pool: p}
	var trace Trace
	trace.Mode = ModeCV
	names := p.fed.Librarians()
	replies, err := e.callParallel(&trace, PhaseSetup, names, func(string) protocol.Message {
		return &protocol.VocabRequest{}
	})
	if err != nil {
		return trace, err
	}
	vocab := selection.NewVocabulary(len(p.fed.libs))
	for i, li := range p.fed.libs {
		vr, ok := replies[li.name].(*protocol.VocabReply)
		if !ok {
			return trace, fmt.Errorf("core: librarian %q answered VocabRequest with %v", li.name, replies[li.name].Type())
		}
		for _, ts := range vr.Terms {
			vocab.Add(i, ts.Term, ts.FT)
		}
	}
	// The selection index reads the same table, so the installed state
	// answers both "how do terms weigh globally?" and "which librarians are
	// worth asking?" from one atomic snapshot.
	vs := &vocabState{vocab: vocab, sel: selection.NewIndex(names, vocab)}
	p.fed.installVocab(vs)
	return trace, nil
}

// SetupModels fetches each librarian's compressed-text model so fetched
// documents can be shipped compressed and decoded at the receptionist.
func (p *Pool) SetupModels() (Trace, error) {
	e := &exec{ctx: context.Background(), fed: p.fed, pool: p}
	var trace Trace
	names := p.fed.Librarians()
	replies, err := e.callParallel(&trace, PhaseSetup, names, func(string) protocol.Message {
		return &protocol.ModelRequest{}
	})
	if err != nil {
		return trace, err
	}
	ms := make(modelSet, len(p.fed.libs))
	for _, li := range p.fed.libs {
		mr, ok := replies[li.name].(*protocol.ModelReply)
		if !ok {
			return trace, fmt.Errorf("core: librarian %q answered ModelRequest with %v", li.name, replies[li.name].Type())
		}
		model, err := huffman.UnmarshalTextModel(mr.Model)
		if err != nil {
			return trace, fmt.Errorf("core: librarian %q model: %w", li.name, err)
		}
		ms[li.name] = model
	}
	p.fed.installModels(&ms)
	return trace, nil
}

// centralParts is how many parts SetupCentralIndexRemote asks each librarian
// for, and centralWindow how many of one librarian's parts it keeps
// outstanding. A librarian evaluates a connection's frames concurrently and
// answers in completion order, so a wider window can make part 0 land last;
// with two, one part is grouped while the one before it is on the wire.
const (
	centralParts  = 8
	centralWindow = 2
)

// SetupCentralIndexRemote performs the CI preprocessing entirely over the
// wire: every librarian groups its own postings groupSize adjacent documents
// to a group, in the receptionist's global group space, and ships only those,
// in centralParts parts split by term; the receptionist checks each part
// against the librarian's place in the global numbering and folds the parts
// term by term as they land — part r while part r+1 is grouped and part r+2
// is on the wire — summing the group two neighbours share, and installs the
// grouped central index atomically. The returned trace records the one-time
// transfer cost the paper's §4 discusses for the CI receptionist: one Call
// per part, in (librarian, part) order. A failure cancels the exchanges
// still outstanding and waits for them.
func (p *Pool) SetupCentralIndexRemote(groupSize int) (Trace, error) {
	var trace Trace
	trace.Mode = ModeCI
	if groupSize < 1 || uint64(groupSize) > math.MaxUint32 {
		return trace, fmt.Errorf("core: group size %d must be in [1, 2^32)", groupSize)
	}
	g := uint32(groupSize)
	// The first failure cancels the call and is its cause.
	ctx, fail := context.WithCancelCause(context.Background())
	defer fail(nil)
	e := &exec{ctx: ctx, fed: p.fed, pool: p}
	calls := make([][]Call, len(p.fed.libs)*centralParts)
	srcs := make([]index.GroupSource, len(p.fed.libs))
	var wg sync.WaitGroup
	for i, li := range p.fed.libs {
		src := &partSource{ctx: ctx, name: li.name, parts: make([]chan *protocol.ListReader, centralParts)}
		for r := range src.parts {
			src.parts[r] = make(chan *protocol.ListReader, 1)
		}
		srcs[i] = src
		lo, hi := protocol.GroupRange(li.offset, li.numDocs, g)
		var next atomic.Uint32
		for range centralWindow {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := next.Add(1) - 1; r < centralParts && ctx.Err() == nil; r = next.Add(1) - 1 {
					req := &protocol.IndexRequest{G: g, Base: li.offset, Part: r, Parts: centralParts}
					var reply protocol.Message
					var f *Failure
					calls[i*centralParts+int(r)], reply, f = e.callLibrarian(li.name, PhaseSetup, req)
					ir, ok := reply.(*protocol.IndexReply)
					switch {
					case f != nil:
						fail(fmt.Errorf("core: librarian %q: %w", li.name, f.Err))
					case !ok:
						fail(fmt.Errorf("core: librarian %q answered IndexRequest with %v", li.name, reply.Type()))
					case ir.Lo != lo || ir.Hi != hi:
						fail(fmt.Errorf("core: librarian %q shipped part %d's groups as [%d, %d), expected [%d, %d): %w",
							li.name, r, ir.Lo, ir.Hi, lo, hi, protocol.ErrBadIndexReply))
					default:
						src.parts[r] <- protocol.NewListReader(ir)
						continue
					}
					return
				}
			}()
		}
	}
	// The merged vocabulary, once exchanged, holds the grouped index's terms.
	var terms, termBytes int
	if vs := p.fed.vocab.Load(); vs != nil {
		terms, termBytes = vs.vocab.Len()
	}
	grouped, err := foldGrouped(srcs, p.fed.totalDocs, g, terms, termBytes, 0, p.fed.analyzer)
	if err != nil {
		fail(err)
	}
	wg.Wait()
	for _, c := range calls {
		trace.Calls = append(trace.Calls, c...)
	}
	if err := context.Cause(ctx); err != nil {
		return trace, err
	}
	return trace, p.fed.SetupCentralIndex(grouped)
}
