// Package librarian implements the librarian role of the paper's
// architecture: an independent mono-server that maintains the index for one
// subcollection, evaluates ranked queries against it, and returns documents
// — all over the protocol package's wire format.
//
// A Librarian is transport-agnostic (ServeConn handles any stream); Server
// adds a TCP accept loop with managed goroutine lifetime for real
// deployments, and InProcessDialer wires librarians to a receptionist
// through simulated links.
package librarian

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"teraphim/internal/index"
	"teraphim/internal/protocol"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

// Librarian owns one subcollection: its index, document store and analysis
// pipeline. Librarian methods are safe for concurrent use; a Librarian can
// be the target of several receptionists at once, as the paper requires.
type Librarian struct {
	name   string
	engine *search.Engine
	docs   *store.Store

	// supported is the feature set this librarian will grant on Hello
	// exchanges (stored as the raw bitmask). Defaults to
	// protocol.SupportedFeatures; see SupportFeatures.
	supported atomic.Uint32

	// metrics is nil until Instrument; sessions load it once at start.
	metrics atomic.Pointer[libMetrics]
}

// New assembles a librarian from its parts.
func New(name string, engine *search.Engine, docs *store.Store) (*Librarian, error) {
	if name == "" {
		return nil, errors.New("librarian: name must be non-empty")
	}
	if engine == nil || docs == nil {
		return nil, errors.New("librarian: engine and store are required")
	}
	if engine.Index().NumDocs() != docs.NumDocs() {
		return nil, fmt.Errorf("librarian %q: index has %d docs, store has %d",
			name, engine.Index().NumDocs(), docs.NumDocs())
	}
	l := &Librarian{name: name, engine: engine, docs: docs}
	l.supported.Store(uint32(protocol.SupportedFeatures))
	return l, nil
}

// SupportFeatures restricts which protocol extensions this librarian grants
// on Hello exchanges (default: protocol.SupportedFeatures). Pass
// protocol.FeatureNone to serve exactly the seed wire format — the way to
// stand in for an older build in a mixed-version fleet. Takes effect for
// connections negotiated after the call.
func (l *Librarian) SupportFeatures(f protocol.Features) {
	l.supported.Store(uint32(f.Wire()))
}

// BuildOptions configures Build.
type BuildOptions struct {
	// Analyzer used for documents and queries; nil selects the standard
	// pipeline (stopwords + Porter stemming).
	Analyzer *textproc.Analyzer
	// SkipInterval is forwarded to the index builder; zero keeps the
	// default. Negative disables skip structures.
	SkipInterval int
}

// Build constructs a librarian from raw documents: analyse, index, compress.
func Build(name string, docs []store.Document, opts BuildOptions) (*Librarian, error) {
	analyzer := opts.Analyzer
	if analyzer == nil {
		analyzer = textproc.NewAnalyzer()
	}
	var builderOpts []index.BuilderOption
	switch {
	case opts.SkipInterval > 0:
		builderOpts = append(builderOpts, index.WithSkipInterval(uint32(opts.SkipInterval)))
	case opts.SkipInterval < 0:
		builderOpts = append(builderOpts, index.WithSkipInterval(0))
	}
	ib := index.NewBuilder(builderOpts...)
	for _, d := range docs {
		ib.Add(analyzer.Terms(nil, d.Text))
	}
	ix, err := ib.Build()
	if err != nil {
		return nil, fmt.Errorf("librarian %q: build index: %w", name, err)
	}
	st, err := store.Build(docs)
	if err != nil {
		return nil, fmt.Errorf("librarian %q: build store: %w", name, err)
	}
	return New(name, search.NewEngine(ix, analyzer), st)
}

// Name returns the librarian's collection name.
func (l *Librarian) Name() string { return l.name }

// Engine exposes the search engine (for local experimentation).
func (l *Librarian) Engine() *search.Engine { return l.engine }

// Store exposes the document store.
func (l *Librarian) Store() *store.Store { return l.docs }

// ServeConn answers protocol messages on conn until EOF or an unrecoverable
// transport error. Protocol-level errors are reported to the peer as
// ErrorReply messages and the session continues. Each session borrows one
// search.Scratch for its lifetime, so consecutive queries on a connection
// reuse the scoring kernel's accumulators instead of reallocating them.
//
// When the connection's first frame is a Hello granted FeaturePipelining,
// the session switches to tagged framing after the HelloReply and serves
// requests concurrently (see serveTagged). A Hello on any later frame can
// never change the framing — the peer may already have frames in flight —
// so mid-stream Hellos are granted everything requested except pipelining.
func (l *Librarian) ServeConn(conn io.ReadWriter) error {
	return serveConn(l, conn)
}

// connServer implementation — the serving loops in serve.go are shared with
// UpdatableLibrarian.
func (l *Librarian) serveName() string         { return l.name }
func (l *Librarian) serveMetrics() *libMetrics { return l.metrics.Load() }
func (l *Librarian) grantFeatures(req protocol.Features) protocol.Features {
	return req & protocol.Features(l.supported.Load())
}
func (l *Librarian) helloReply(granted protocol.Features) protocol.Message {
	return l.hello(granted)
}
func (l *Librarian) dispatch(scratch *search.Scratch, msg protocol.Message, conn protocol.Features) protocol.Message {
	return l.handle(scratch, msg, conn)
}

// handle dispatches one request to the engine/store. scratch is the
// session's reusable evaluation state; conn is the feature set active on
// the connection (it bounds what a mid-stream Hello may be granted).
func (l *Librarian) handle(scratch *search.Scratch, msg protocol.Message, conn protocol.Features) protocol.Message {
	switch m := msg.(type) {
	case *protocol.Hello:
		granted := m.Features.Wire() & protocol.Features(l.supported.Load())
		if !conn.Has(protocol.FeaturePipelining) {
			// Framing is fixed after the first frame; only a connection
			// already running tagged may report pipelining as active.
			granted &^= protocol.FeaturePipelining
		}
		return l.hello(granted)
	case *protocol.VocabRequest:
		return l.vocab()
	case *protocol.RankQuery, *protocol.ScoreDocs:
		return rankPhase(l, scratch, msg)
	case *protocol.BatchQuery:
		return batchReply(l, scratch, m)
	case *protocol.FetchDocs:
		return fetchReply(l, m)
	case *protocol.ModelRequest:
		return &protocol.ModelReply{Model: l.docs.Model().Marshal()}
	case *protocol.BooleanQuery:
		return l.boolean(m)
	case *protocol.IndexRequest:
		return l.shipIndex()
	default:
		return &protocol.ErrorReply{Message: fmt.Sprintf("unexpected message %v", msg.Type())}
	}
}

func (l *Librarian) hello(granted protocol.Features) protocol.Message {
	ix := l.engine.Index()
	return &protocol.HelloReply{
		Name:       l.name,
		NumDocs:    ix.NumDocs(),
		NumTerms:   uint32(ix.NumTerms()),
		IndexBytes: ix.SizeBytes(),
		VocabBytes: ix.DictSizeBytes(),
		StoreBytes: l.docs.CompressedSize(),
		Features:   granted,
	}
}

func (l *Librarian) vocab() protocol.Message {
	ix := l.engine.Index()
	reply := &protocol.VocabReply{Terms: make([]protocol.TermStat, 0, ix.NumTerms())}
	ix.Terms(func(term string, ft uint32) bool {
		reply.Terms = append(reply.Terms, protocol.TermStat{Term: term, FT: ft})
		return true
	})
	return reply
}

func (l *Librarian) rank(scratch *search.Scratch, m *protocol.RankQuery) protocol.Message {
	eval := search.Evaluator(m.Evaluator)
	if !eval.Valid() {
		return &protocol.ErrorReply{Message: fmt.Sprintf("unknown evaluator %d", m.Evaluator)}
	}
	results, stats, err := l.engine.RankWithEval(scratch, m.Query, int(m.K), m.Weights, eval)
	if err != nil {
		if errors.Is(err, search.ErrEmptyQuery) {
			return &protocol.RankReply{Stats: stats}
		}
		return &protocol.ErrorReply{Message: err.Error()}
	}
	return rankReply(results, stats)
}

func (l *Librarian) score(scratch *search.Scratch, m *protocol.ScoreDocs) protocol.Message {
	results, stats, err := l.engine.ScoreDocsWith(scratch, m.Query, m.Docs, m.Weights)
	if err != nil {
		if errors.Is(err, search.ErrEmptyQuery) {
			return &protocol.RankReply{Stats: stats}
		}
		return &protocol.ErrorReply{Message: err.Error()}
	}
	return scoreReply(results, stats, m.K)
}

func (l *Librarian) boolean(m *protocol.BooleanQuery) protocol.Message {
	q, err := l.engine.ParseBoolean(m.Expr)
	if err != nil {
		return &protocol.ErrorReply{Message: err.Error()}
	}
	docs, stats := l.engine.EvaluateBoolean(q)
	return &protocol.BooleanReply{Docs: docs, Stats: stats}
}

func (l *Librarian) shipIndex() protocol.Message {
	var buf bytes.Buffer
	if _, err := l.engine.Index().WriteTo(&buf); err != nil {
		return &protocol.ErrorReply{Message: fmt.Sprintf("serialise index: %v", err)}
	}
	return &protocol.IndexReply{Data: buf.Bytes()}
}

func rankReply(results []search.Result, stats search.Stats) *protocol.RankReply {
	reply := &protocol.RankReply{Results: make([]protocol.ScoredDoc, len(results)), Stats: stats}
	for i, r := range results {
		reply.Results[i] = protocol.ScoredDoc{Doc: r.Doc, Score: r.Score}
	}
	return reply
}

// scoreReply builds a ScoreDocs reply: every nominated score in request
// order when k is zero (the seed behaviour), otherwise the k best,
// best-first.
func scoreReply(results []search.Result, stats search.Stats, k uint32) *protocol.RankReply {
	if k > 0 {
		search.SortResults(results)
		if uint64(len(results)) > uint64(k) {
			results = results[:k]
		}
	}
	return rankReply(results, stats)
}

func (l *Librarian) fetchOne(id uint32, compressed bool) (protocol.DocBlob, error) {
	title, err := l.docs.Title(id)
	if err != nil {
		return protocol.DocBlob{}, err
	}
	blob := protocol.DocBlob{Doc: id, Title: title, Compressed: compressed}
	if compressed {
		data, err := l.docs.FetchCompressed(id)
		if err != nil {
			return protocol.DocBlob{}, err
		}
		blob.Data = append([]byte(nil), data...)
	} else {
		doc, err := l.docs.Fetch(id)
		if err != nil {
			return protocol.DocBlob{}, err
		}
		blob.Data = []byte(doc.Text)
	}
	return blob, nil
}

// Server runs a librarian behind a TCP (or other) listener. Sessions are
// served concurrently; Close stops accepting, closes the listener, and
// waits for in-flight sessions to finish.
type Server struct {
	lib *Librarian
	ln  net.Listener

	wg     sync.WaitGroup
	closed chan struct{}
}

// Serve starts accepting sessions on ln. It returns immediately; use Close
// to stop.
func Serve(lib *Librarian, ln net.Listener) *Server {
	s := &Server{lib: lib, ln: ln, closed: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			// Session errors are peer-visible via ErrorReply; transport
			// failures just end the session.
			_ = s.lib.ServeConn(conn)
		}()
	}
}

// Close stops the server and waits for active sessions to drain.
func (s *Server) Close() error {
	close(s.closed)
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// InProcessDialer returns a simnet.Dialer that connects to the given
// librarians over freshly created simulated links. Each Dial spawns a
// serving goroutine owned by the returned closer; call Close to wait for
// all sessions to end after closing the client connections.
//
// An endpoint name usually equals the librarian's collection name, but
// AddEndpoint can register extra names serving the same (or an equivalent)
// Librarian — the in-process way to stand up a replica set.
type InProcessDialer struct {
	mu    sync.Mutex
	links map[string]linkSpec
	wg    sync.WaitGroup
}

// ConnServer is any endpoint that can answer protocol messages on a stream —
// a *Librarian or an *UpdatableLibrarian. InProcessDialer accepts either, so
// in-process fleets can mix frozen and live-ingesting subcollections.
type ConnServer interface {
	Name() string
	ServeConn(conn io.ReadWriter) error
}

type linkSpec struct {
	lib ConnServer
	cfg simnet.LinkConfig
}

// NewInProcessDialer builds a dialer over the given librarians, all sharing
// one link configuration.
func NewInProcessDialer(libs []*Librarian, cfg simnet.LinkConfig) *InProcessDialer {
	d := &InProcessDialer{links: make(map[string]linkSpec, len(libs))}
	for _, lib := range libs {
		d.links[lib.Name()] = linkSpec{lib: lib, cfg: cfg}
	}
	return d
}

// AddEndpoint registers an endpoint name served by lib over its own link.
// Several endpoints may share one Librarian (it is concurrency-safe), which
// models replicas of a subcollection without duplicating the index. Safe to
// call while the dialer is in use, so replica sets can grow live.
func (d *InProcessDialer) AddEndpoint(name string, lib ConnServer, cfg simnet.LinkConfig) {
	d.mu.Lock()
	d.links[name] = linkSpec{lib: lib, cfg: cfg}
	d.mu.Unlock()
}

// SetLink overrides the link configuration for one endpoint (used by the
// WAN experiment where each site has its own round-trip time).
func (d *InProcessDialer) SetLink(name string, cfg simnet.LinkConfig) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	spec, ok := d.links[name]
	if !ok {
		return fmt.Errorf("librarian: unknown peer %q", name)
	}
	spec.cfg = cfg
	d.links[name] = spec
	return nil
}

// Dial implements simnet.Dialer.
func (d *InProcessDialer) Dial(name string) (net.Conn, error) {
	d.mu.Lock()
	spec, ok := d.links[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("librarian: unknown peer %q", name)
	}
	client, server := simnet.Pipe(spec.cfg)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer server.Close()
		_ = spec.lib.ServeConn(server)
	}()
	return client, nil
}

// Wait blocks until every session spawned by Dial has finished; callers
// must close their client connections first.
func (d *InProcessDialer) Wait() { d.wg.Wait() }

var _ simnet.Dialer = (*InProcessDialer)(nil)
