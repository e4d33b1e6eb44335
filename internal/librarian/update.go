package librarian

import (
	"teraphim/internal/search"
	"teraphim/internal/store"
)

// The paper's §4 lists "faster update" among distribution's management
// benefits: a subcollection can be re-indexed at its own site without
// touching the rest of the federation. A Librarian realizes it with an
// LSM-style segmented collection: immutable per-segment indexes+stores, an
// atomically-published copy-on-write manifest, streaming Ingest through a
// bounded queue onto a background builder, and size-tiered background merges
// — so tokenize/compress/build happens off the serving path and queries
// always see a consistent snapshot (see segment.go and ingest.go). This file
// is the publication step they share.

// newManifest assembles a manifest from segments in order: empty segments
// are pruned (keeping at least one so there is always a collection to
// answer from) and offset bases reassigned cumulatively.
func (l *Librarian) newManifest(segs []*segment) *manifest {
	kept := make([]*segment, 0, len(segs))
	for _, sg := range segs {
		if sg.Index.NumDocs() > 0 {
			kept = append(kept, sg)
		}
	}
	if len(kept) == 0 {
		kept = segs[:1]
	}
	out := make([]*segment, len(kept))
	parts := make([]search.Part, len(kept))
	var base uint32
	for i, sg := range kept {
		out[i] = &segment{Part: search.Part{Index: sg.Index, Base: base}, store: sg.store}
		parts[i] = out[i].Part
		base += sg.Index.NumDocs()
	}
	return &manifest{lib: l, segs: out, parts: parts, total: base}
}

// OnUpdate registers fn to run after every manifest publication (each
// segment built, each merge), in registration order, on the publishing
// goroutine. This is the cache-invalidation hook: wire a receptionist's
// InvalidateCache here so cached answers never outlive the snapshot they
// were computed from. fn must not block for long and must be safe to call
// concurrently with queries.
func (l *Librarian) OnUpdate(fn func()) {
	if fn == nil {
		return
	}
	l.mu.Lock()
	l.onUpdate = append(l.onUpdate, fn)
	l.mu.Unlock()
}

// publish installs next(current manifest) under the publication lock, bumps
// the epoch and fires the update callbacks (after the lock is released, on
// the publishing goroutine).
func (l *Librarian) publish(next func(old *manifest) *manifest) {
	l.mu.Lock()
	m := next(l.man.Load())
	l.man.Store(m)
	callbacks := append([]func(){}, l.onUpdate...)
	l.mu.Unlock()
	l.epoch.Add(1)
	if lm := l.metrics.Load(); lm != nil {
		lm.segmentsLive.Set(int64(len(m.segs)))
		lm.docsTotal.Set(int64(m.total))
	}
	for _, fn := range callbacks {
		fn()
	}
}

// appendSegment publishes a manifest with sg sealed as the last segment,
// then pokes the merge policy.
func (l *Librarian) appendSegment(sg *segment) {
	l.publish(func(old *manifest) *manifest {
		segs := append(append(make([]*segment, 0, len(old.segs)+1), old.segs...), sg)
		return l.newManifest(segs)
	})
	l.maybeMerge()
}

// UpdatableLibrarian and NewUpdatable are held only for benchmark/, which is
// frozen and names them; they go with the next benchmark PR.
type UpdatableLibrarian = Librarian

// NewUpdatable is Build.
func NewUpdatable(name string, docs []store.Document, opts BuildOptions) (*UpdatableLibrarian, error) {
	return Build(name, docs, opts)
}
