package librarian

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"teraphim/internal/huffman"
	"teraphim/internal/protocol"
	"teraphim/internal/search"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

// The paper's §4 lists "faster update" among distribution's management
// benefits: a subcollection can be re-indexed at its own site without
// touching the rest of the federation. UpdatableLibrarian realizes it with
// an LSM-style segmented collection: immutable per-segment indexes+stores,
// an atomically-published copy-on-write manifest, streaming Ingest through
// a bounded queue onto background builders, and size-tiered background
// merges — so tokenize/compress/build happens off the serving path and
// queries always see a consistent snapshot (see segment.go and ingest.go).
//
// The preferred API is Ingest/Flush/Compact/SegmentStats. Update and Append
// remain as compatibility wrappers: Update rebuilds into one segment
// (rebuild-and-swap, the seed behaviour), Append seals the new documents
// into a fresh segment in O(new docs) instead of re-indexing the whole
// subcollection.

// UpdatableLibrarian is a librarian whose collection can grow and be
// replaced while serving. All methods are safe for concurrent use.
type UpdatableLibrarian struct {
	name     string
	analyzer *textproc.Analyzer
	skip     int

	// supported is the feature set granted on Hello exchanges. Segment
	// manifests are immutable and dispatch is per-frame-snapshot, so
	// updatable librarians grant the full default set — including
	// FeaturePipelining, which the rebuild-and-swap design had to refuse.
	supported atomic.Uint32

	// epoch counts manifest publications (updates, appends, ingested
	// batches, merges); receptionist-side caches compare it (or subscribe
	// via OnUpdate) to drop answers computed over an older snapshot.
	epoch atomic.Uint64
	man   atomic.Pointer[manifest]

	mu       sync.Mutex // serializes manifest publication + callback list
	onUpdate []func()

	// Ingest pipeline state — see ingest.go.
	cfg       IngestConfig
	qmu       sync.Mutex
	queue     chan []store.Document
	stop      chan struct{} // closed by Close after enqueuers drain: workers finish the queue and exit
	closing   chan struct{} // closed by Close first: unblocks enqueuers waiting for queue space
	started   bool
	closed    bool
	enqueuers sync.WaitGroup
	workers   sync.WaitGroup

	fmu       sync.Mutex
	enqSeq    uint64
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

	metrics atomic.Pointer[segMetrics]

	// testBuildGate and testBuild, when set (before the first Ingest), hook
	// the background builders: the gate is invoked at the start of every
	// batch build (deterministic backpressure tests block on it), and
	// testBuild replaces the segment build (failure-path tests inject
	// errors with it).
	testBuildGate func()
	testBuild     func(docs []store.Document) (*Librarian, error)
}

// NewUpdatable builds the initial collection (as a single segment) and
// returns the updatable wrapper.
func NewUpdatable(name string, docs []store.Document, opts BuildOptions) (*UpdatableLibrarian, error) {
	lib, err := Build(name, docs, opts)
	if err != nil {
		return nil, err
	}
	analyzer := opts.Analyzer
	if analyzer == nil {
		analyzer = textproc.NewAnalyzer()
	}
	u := &UpdatableLibrarian{
		name:     name,
		analyzer: analyzer,
		skip:     opts.SkipInterval,
		closing:  make(chan struct{}),
		notify:   make(chan struct{}),
	}
	u.supported.Store(uint32(protocol.SupportedFeatures))
	u.man.Store(u.newManifest([]*segment{{lib: lib, docs: lib.docs.NumDocs()}}, lib.docs.Model()))
	return u, nil
}

// newManifest assembles a manifest from segments in order: empty segments
// are pruned (keeping at least one so there is always a collection to
// answer from) and offset bases reassigned cumulatively.
func (u *UpdatableLibrarian) newManifest(segs []*segment, model *huffman.TextModel) *manifest {
	kept := make([]*segment, 0, len(segs))
	for _, sg := range segs {
		if sg.docs > 0 {
			kept = append(kept, sg)
		}
	}
	if len(kept) == 0 {
		kept = segs[:1]
	}
	out := make([]*segment, len(kept))
	var base uint32
	for i, sg := range kept {
		out[i] = &segment{lib: sg.lib, docs: sg.docs, base: base}
		base += sg.docs
	}
	return &manifest{name: u.name, analyzer: u.analyzer, skip: u.skip, segs: out, total: base, model: model}
}

// snapshot returns the current manifest.
func (u *UpdatableLibrarian) snapshot() *manifest { return u.man.Load() }

// Name returns the collection name.
func (u *UpdatableLibrarian) Name() string { return u.name }

// Epoch returns the number of manifest publications since construction. Any
// receptionist-side state derived from this librarian (cached results,
// merged vocabularies) is stale once the epoch it was read under differs
// from the current one.
func (u *UpdatableLibrarian) Epoch() uint64 { return u.epoch.Load() }

// OnUpdate registers fn to run after every manifest publication (Update,
// Append, each ingested batch, each background merge), in registration
// order, on the publishing goroutine. This is the cache-invalidation hook:
// wire a receptionist's InvalidateCache here so cached answers never outlive
// the snapshot they were computed from. fn must not block for long and must
// be safe to call concurrently with queries.
func (u *UpdatableLibrarian) OnUpdate(fn func()) {
	if fn == nil {
		return
	}
	u.mu.Lock()
	u.onUpdate = append(u.onUpdate, fn)
	u.mu.Unlock()
}

// SupportFeatures restricts which protocol extensions this librarian grants
// on Hello exchanges (default: protocol.SupportedFeatures, pipelining
// included). Takes effect for connections negotiated after the call.
func (u *UpdatableLibrarian) SupportFeatures(f protocol.Features) {
	u.supported.Store(uint32(f.Wire()))
}

// Current returns the serving collection as one ordinary Librarian. The
// snapshot is immutable and remains valid after later updates. On a
// multi-segment manifest this materialises (once per manifest) a merged
// view; prefer SegmentStats/Ingest-side APIs on hot paths.
func (u *UpdatableLibrarian) Current() *Librarian {
	lib, err := u.snapshot().materialize()
	if err != nil {
		// The segments a manifest holds were verified at build time and are
		// immutable; failing to merge them means corrupted invariants, not a
		// recoverable condition.
		panic(fmt.Sprintf("librarian %q: materialize current snapshot: %v", u.name, err))
	}
	return lib
}

// Engine returns the current snapshot's engine (convenience for local use).
func (u *UpdatableLibrarian) Engine() *search.Engine { return u.Current().Engine() }

// publish runs mutate against the current manifest under the publication
// lock and, if it returns a new manifest, installs it, bumps the epoch and
// fires the update callbacks (after the lock is released, on the publishing
// goroutine). mutate returning nil aborts the publication — how a merge
// whose inputs vanished mid-flight (a concurrent Update replaced them)
// drops its result. Reports whether a manifest was published.
func (u *UpdatableLibrarian) publish(mutate func(old *manifest) *manifest) bool {
	u.mu.Lock()
	next := mutate(u.man.Load())
	if next == nil {
		u.mu.Unlock()
		return false
	}
	u.man.Store(next)
	callbacks := append([]func(){}, u.onUpdate...)
	u.mu.Unlock()
	u.epoch.Add(1)
	if m := u.metrics.Load(); m != nil {
		m.segmentsLive.Set(int64(len(next.segs)))
		m.docsTotal.Set(int64(next.total))
	}
	for _, fn := range callbacks {
		fn()
	}
	return true
}

// Update rebuilds the collection from docs into a single fresh segment and
// swaps it in atomically — the seed rebuild-and-swap behaviour. Queries
// racing with the update see either the old or the new collection, never a
// mixture.
//
// Deprecated-in-spirit: Update re-indexes everything it is given and stalls
// the caller for the full build; prefer Ingest (incremental, off the
// serving path) with Flush for visibility, or Compact to fold accumulated
// segments. It remains supported for wholesale collection replacement.
func (u *UpdatableLibrarian) Update(docs []store.Document) error {
	lib, err := Build(u.name, docs, BuildOptions{Analyzer: u.analyzer, SkipInterval: u.skip})
	if err != nil {
		return fmt.Errorf("librarian: update %q: %w", u.name, err)
	}
	u.publish(func(*manifest) *manifest {
		return u.newManifest([]*segment{{lib: lib, docs: lib.docs.NumDocs()}}, lib.docs.Model())
	})
	return nil
}

// Append indexes newDocs into a fresh segment appended after the existing
// ones. Existing documents keep their ids; cost is O(new docs) — the old
// segments (and their stores) are not touched, let alone re-read.
//
// Deprecated-in-spirit: Append is the synchronous form of Ingest and runs
// the build on the caller's goroutine; prefer Ingest for streaming arrival.
func (u *UpdatableLibrarian) Append(newDocs []store.Document) error {
	lib, err := Build(u.name, newDocs, BuildOptions{Analyzer: u.analyzer, SkipInterval: u.skip})
	if err != nil {
		return fmt.Errorf("librarian: append to %q: %w", u.name, err)
	}
	u.appendSegment(lib)
	return nil
}

// appendSegment publishes a manifest with lib sealed as the last segment,
// then pokes the merge policy.
func (u *UpdatableLibrarian) appendSegment(lib *Librarian) {
	u.publish(func(old *manifest) *manifest {
		segs := make([]*segment, 0, len(old.segs)+1)
		segs = append(segs, old.segs...)
		segs = append(segs, &segment{lib: lib, docs: lib.docs.NumDocs()})
		return u.newManifest(segs, old.model)
	})
	u.maybeMerge()
}

// ServeConn answers protocol messages until EOF, dispatching each request
// against the manifest current when it arrives. Sessions negotiate features
// exactly like a plain Librarian — including FeaturePipelining: tagged
// frames are evaluated concurrently, each against its own per-frame
// manifest snapshot, so a pipelined session straddling an update sees some
// answers from the old snapshot and some from the new, but never a mixture
// within one answer.
func (u *UpdatableLibrarian) ServeConn(conn io.ReadWriter) error {
	return serveConn(u, conn)
}

// connServer implementation (see serve.go).
func (u *UpdatableLibrarian) serveName() string         { return u.name }
func (u *UpdatableLibrarian) serveMetrics() *libMetrics { return nil }
func (u *UpdatableLibrarian) grantFeatures(req protocol.Features) protocol.Features {
	return req & protocol.Features(u.supported.Load())
}
func (u *UpdatableLibrarian) helloReply(granted protocol.Features) protocol.Message {
	return u.snapshot().hello(granted)
}

func (u *UpdatableLibrarian) dispatch(scratch *search.Scratch, msg protocol.Message, conn protocol.Features) protocol.Message {
	m := u.snapshot()
	switch req := msg.(type) {
	case *protocol.Hello:
		granted := u.grantFeatures(req.Features.Wire())
		if !conn.Has(protocol.FeaturePipelining) {
			// Framing is fixed after the first frame; only a connection
			// already running tagged may report pipelining as active.
			granted &^= protocol.FeaturePipelining
		}
		return m.hello(granted)
	case *protocol.VocabRequest:
		return m.vocab()
	case *protocol.RankQuery, *protocol.ScoreDocs:
		return rankPhase(m, scratch, msg)
	case *protocol.BatchQuery:
		return batchReply(m, scratch, req)
	case *protocol.FetchDocs:
		return fetchReply(m, req)
	case *protocol.ModelRequest:
		return m.modelReply()
	case *protocol.BooleanQuery:
		return m.boolean(req)
	case *protocol.IndexRequest:
		return m.shipIndex()
	default:
		return &protocol.ErrorReply{Message: fmt.Sprintf("unexpected message %v", msg.Type())}
	}
}
