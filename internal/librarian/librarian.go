// Package librarian implements the librarian role of the paper's
// architecture: an independent mono-server that maintains the index for one
// subcollection, evaluates ranked queries against it, and returns documents
// — all over the protocol package's wire format.
//
// There is one Librarian. Its collection is a manifest of immutable segments
// (segment.go) published copy-on-write (update.go); Build and Load return it
// with one segment, Ingest (ingest.go) appends more while it serves, and a
// librarian that never ingests starts no goroutine — which is all "static"
// means. ServeConn (serve.go) handles any stream; Server adds a TCP accept
// loop with managed goroutine lifetime for real deployments, and
// InProcessDialer wires librarians to a receptionist through simulated links.
package librarian

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"teraphim/internal/huffman"
	"teraphim/internal/index"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

// Librarian owns one subcollection: its segments, the analysis pipeline they
// were built with, and the ingest pipeline that grows them. All methods are
// safe for concurrent use; a Librarian can be the target of several
// receptionists at once, as the paper requires.
type Librarian struct {
	name     string
	analyzer *textproc.Analyzer
	skip     uint32 // skip interval of every segment index, merged ones included
	// model is the collection's one text model, frozen for the librarian's
	// life: every segment's store is coded under it, so a merge concatenates
	// stores and a compressed fetch ships the stored blob as it is.
	model *huffman.TextModel

	// epoch counts manifest publications (segments built, merges);
	// receptionist-side caches compare it (or subscribe via OnUpdate) to
	// drop answers computed over an older snapshot.
	epoch atomic.Uint64
	man   atomic.Pointer[manifest]

	mu       sync.Mutex // serializes manifest publication + callback list
	onUpdate []func()

	// Ingest pipeline state — see ingest.go.
	cfg      IngestConfig
	qmu      sync.Mutex
	queue    chan []store.Document // closed by Close under the send slot: the builder finishes it and exits
	sendSlot chan struct{}         // held by an Ingest from its send to its count, and by Close for good
	closing  chan struct{}         // closed by Close first: unblocks Ingests waiting for the slot or for room
	started  bool
	closed   bool
	builder  sync.WaitGroup

	enqSeq    atomic.Uint64 // batches sent, counted under the send slot
	fmu       sync.Mutex
	pubSeq    uint64
	notify    chan struct{}
	ingestErr error

	mergeMu sync.Mutex // at most one merge or compaction at a time
	merging atomic.Bool
	mergeWG sync.WaitGroup

	docsQueued     atomic.Uint64
	docsIndexed    atomic.Uint64
	batchesDone    atomic.Uint64
	mergesDone     atomic.Uint64
	ingestFailures atomic.Uint64
	queueFullWaits atomic.Uint64

	// metrics is nil until Instrument; sessions load it once at start.
	metrics atomic.Pointer[libMetrics]

	// testBuildGate and testBuild, when set (before the first Ingest), hook
	// the background builder: the gate is invoked at the start of every
	// segment build (deterministic backpressure tests block on it), and
	// testBuild replaces the segment build (failure-path tests inject
	// errors with it).
	testBuildGate func()
	testBuild     func(docs []store.Document) (*segment, error)
	testAfterSend func() // between an Ingest's send and its count
}

// New assembles a librarian from its parts, as a one-segment collection.
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
	l := &Librarian{
		name:     name,
		analyzer: engine.Analyzer(),
		skip:     engine.Index().SkipInterval(),
		model:    docs.Model(),
		closing:  make(chan struct{}),
		sendSlot: make(chan struct{}, 1),
		notify:   make(chan struct{}),
	}
	l.man.Store(l.newManifest([]*segment{{engine: engine, store: docs, docs: docs.NumDocs()}}))
	return l, nil
}

// BuildOptions configures Build.
type BuildOptions struct {
	// Analyzer used for documents and queries; nil selects the standard
	// pipeline (stopwords + Porter stemming).
	Analyzer *textproc.Analyzer
}

// Build constructs a librarian from raw documents in the one scan an
// ingested batch runs, under a lexicon that learns: MG's first pass counts
// the text model's tokens as the scan indexes them. The model is kept for the
// librarian's life — documents ingested later are coded under it, novel words
// through its escape codes — so build from a representative sample: a
// librarian built from no documents stores what it ingests at near raw size.
func Build(name string, docs []store.Document, opts BuildOptions) (*Librarian, error) {
	analyzer := opts.Analyzer
	if analyzer == nil {
		analyzer = textproc.NewAnalyzer()
	}
	sg, err := buildSegment(name, docs, analyzer, index.DefaultSkipInterval, huffman.NewTrainer())
	if err != nil {
		return nil, err
	}
	return New(name, sg.engine, sg.store)
}

// Name returns the librarian's collection name.
func (l *Librarian) Name() string { return l.name }

// Engine exposes the search engine over the whole collection (for local
// experimentation): the sole segment's, or on a multi-segment manifest the
// merged view, materialised once per manifest. The snapshot is immutable
// and stays valid after later ingestion.
func (l *Librarian) Engine() *search.Engine { return l.view().engine }

// Store exposes the document store over the whole collection, as Engine.
func (l *Librarian) Store() *store.Store { return l.view().store }

func (l *Librarian) view() *segment {
	sg, err := l.man.Load().merged()
	if err != nil {
		// The segments a manifest holds were verified at build time and are
		// immutable; failing to merge them means corrupted invariants, not a
		// recoverable condition.
		panic(fmt.Sprintf("librarian %q: merge current snapshot: %v", l.name, err))
	}
	return sg
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

// Accept retry backoff: a failing Accept (typically the process is at its
// descriptor limit) is retried after a delay that doubles up to the cap, so
// the loop does not burn a core the open sessions need to finish and free
// descriptors.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoffMin
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-s.closed:
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, acceptBackoffMax)
			continue
		}
		backoff = acceptBackoffMin
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

// ConnServer is held only for benchmark/, which is frozen and names it;
// every endpoint is a *Librarian. It goes with the next benchmark PR.
type ConnServer interface {
	Name() string
	ServeConn(conn io.ReadWriter) error
}

type linkSpec struct {
	lib *Librarian
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
func (d *InProcessDialer) AddEndpoint(name string, lib *Librarian, cfg simnet.LinkConfig) {
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
