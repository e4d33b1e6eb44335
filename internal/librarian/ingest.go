package librarian

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"teraphim/internal/store"
)

// Streaming ingestion: Ingest enqueues document batches onto a bounded
// queue; one background builder tokenizes/compresses/builds them into
// immutable segments off the serving path and publishes each by appending to
// the manifest. The queue gives backpressure a shape — a full queue makes
// Ingest wait (context-aware) instead of letting indexing debt grow
// unboundedly — and the size-tiered merge policy keeps the segment count
// logarithmic in collection size so query fan-in stays cheap.

// Typed errors of the ingest API, consistent with the core taxonomy
// (core.ErrOverloaded etc.): match them with errors.Is.
var (
	// ErrIngestQueueFull reports that an Ingest call gave up (its context
	// expired) while waiting for room on the bounded ingest queue.
	ErrIngestQueueFull = errors.New("librarian: ingest queue full")
	// ErrLibrarianClosed reports an ingest operation on a Librarian after
	// Close.
	ErrLibrarianClosed = errors.New("librarian: closed")
)

// Defaults for IngestConfig zero values.
const (
	defaultQueueDepth = 16
	defaultMergeFanIn = 4
	defaultMinSegDocs = 256
	maxTier           = 32
)

// IngestConfig tunes the streaming ingest pipeline. The zero value selects
// the defaults noted per field; set it with ConfigureIngest before the
// first Ingest call.
type IngestConfig struct {
	// QueueDepth bounds the ingest queue in batches (not documents).
	// Ingest blocks — honouring its context — once this many batches are
	// waiting to be built. Zero selects 16.
	QueueDepth int
	// MergeFanIn is the size-tier compaction trigger K: a run of at least K
	// adjacent same-tier segments is merged into one. Zero selects 4;
	// negative disables background merging (Compact still works).
	MergeFanIn int
	// MinSegmentDocs is the width of tier 0: a segment's tier is the number
	// of times MinSegmentDocs·MergeFanIn^t fits under its doc count. Zero
	// selects 256.
	MinSegmentDocs int
}

func (l *Librarian) queueDepth() int { return setting(l.cfg.QueueDepth, 1, defaultQueueDepth) }
func (l *Librarian) fanIn() int      { return setting(l.cfg.MergeFanIn, 2, defaultMergeFanIn) }
func (l *Librarian) minSegDocs() int { return setting(l.cfg.MinSegmentDocs, 1, defaultMinSegDocs) }

// setting returns v if it is at least lo, else the default def.
func setting(v, lo, def int) int {
	if v >= lo {
		return v
	}
	return def
}

// tierOf buckets a segment size geometrically: tier t holds segments of
// [base·F^t, base·F^(t+1)) documents, so merging F tier-t segments yields a
// tier-t+1 segment and the segment count stays logarithmic in collection
// size.
func (l *Librarian) tierOf(docs uint32) int {
	base, fan := uint64(l.minSegDocs()), uint64(l.fanIn())
	t := 0
	for size := base; uint64(docs) >= size*fan && t < maxTier; size *= fan {
		t++
	}
	return t
}

// ConfigureIngest installs cfg. It must be called before the first Ingest
// (the pipeline's queue and builder start lazily on first use).
func (l *Librarian) ConfigureIngest(cfg IngestConfig) error {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if l.closed {
		return fmt.Errorf("librarian: configure %q: %w", l.name, ErrLibrarianClosed)
	}
	if l.started {
		return fmt.Errorf("librarian: configure %q: ingest pipeline already running", l.name)
	}
	l.cfg = cfg
	return nil
}

// Ingest enqueues docs for background indexing and returns once the batch
// is accepted (not once it is visible — use Flush for that). The batch is
// copied, so the caller may reuse docs. When the bounded queue is full,
// Ingest waits for room until ctx is done, then fails with an error
// matching ErrIngestQueueFull — the backpressure signal: the caller is
// producing documents faster than the builder retires them.
func (l *Librarian) Ingest(ctx context.Context, docs []store.Document) error {
	if len(docs) == 0 {
		return nil
	}
	l.qmu.Lock()
	if l.closed {
		l.qmu.Unlock()
		return fmt.Errorf("librarian: ingest into %q: %w", l.name, ErrLibrarianClosed)
	}
	if !l.started { // the queue and its builder start on first use
		l.queue = make(chan []store.Document, l.queueDepth())
		l.started = true
		l.builder.Add(1)
		go l.worker()
	}
	queue := l.queue
	l.qmu.Unlock()

	batch := append([]store.Document(nil), docs...)
	// The send and its count are one step, under the send slot: a batch is
	// counted before any batch queued behind it, so the count Flush reads is
	// a watermark of queue order. DocsQueued counts it before the builder can.
	if err := put(l, ctx, l.sendSlot, struct{}{}, false); err != nil {
		return err
	}
	defer func() { <-l.sendSlot }()
	l.docsQueued.Add(uint64(len(docs)))
	if err := put(l, ctx, queue, batch, true); err != nil {
		l.docsQueued.Add(-uint64(len(docs)))
		return err
	}
	if l.testAfterSend != nil {
		l.testAfterSend()
	}
	l.enqSeq.Add(1)
	if m := l.metrics.Load(); m != nil {
		m.docsQueued.Add(uint64(len(docs)))
		m.queueLen.Set(int64(len(queue)))
	}
	return nil
}

// put sends v on ch, waiting for room until ctx is done or Close begins.
func put[T any](l *Librarian, ctx context.Context, ch chan<- T, v T, queue bool) error {
	select {
	case ch <- v:
		return nil
	default:
	}
	if queue { // the wait is for the queue: count it
		l.queueFullWaits.Add(1)
		if m := l.metrics.Load(); m != nil {
			m.queueFull.Inc()
		}
	}
	select {
	case ch <- v:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("librarian: ingest into %q: %w: %w", l.name, ErrIngestQueueFull, context.Cause(ctx))
	case <-l.closing:
		return fmt.Errorf("librarian: ingest into %q: %w", l.name, ErrLibrarianClosed)
	}
}

// Flush blocks until every batch accepted by Ingest before the call has
// been built and published (or failed), honouring ctx: the one builder
// retires batches in queue order, so the count it has retired is a
// watermark. It returns the first asynchronous build or background-merge
// error since the previous Flush, clearing it — the redesigned API's error
// channel for work that failed off the caller's goroutine.
func (l *Librarian) Flush(ctx context.Context) error {
	target := l.enqSeq.Load()
	l.fmu.Lock()
	for l.pubSeq < target {
		wake := l.notify
		l.fmu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return fmt.Errorf("librarian: flush %q: %w", l.name, context.Cause(ctx))
		}
		l.fmu.Lock()
	}
	err := l.ingestErr
	l.ingestErr = nil
	l.fmu.Unlock()
	return err
}

// fail counts a failed background build or merge and keeps the first one
// since the last Flush for the next Flush to return.
func (l *Librarian) fail(err error) {
	l.ingestFailures.Add(1)
	if m := l.metrics.Load(); m != nil {
		m.ingestErrors.Inc()
	}
	l.fmu.Lock()
	if l.ingestErr == nil {
		l.ingestErr = err
	}
	l.fmu.Unlock()
}

// batchesRetired advances the publication sequence by n batches and wakes
// Flush waiters.
func (l *Librarian) batchesRetired(n int) {
	l.fmu.Lock()
	l.pubSeq += uint64(n)
	close(l.notify)
	l.notify = make(chan struct{})
	l.fmu.Unlock()
}

// worker is the one builder, and it commits in groups: with each batch it
// takes every batch already queued behind it, in arrival order, until the
// group holds the tier-0 width, and seals them as one segment. It never
// waits for a batch to arrive, so a writer that flushes after each batch
// gets a segment per batch, while a backlog is built and merged once rather
// than batch by batch. Close closes the queue once no enqueuer is left,
// which ends the loop after the last batch.
func (l *Librarian) worker() {
	defer l.builder.Done()
	width := l.minSegDocs() * l.fanIn()
	for batch := range l.queue {
		group, n := [][]store.Document{batch}, len(batch)
		// The builder is the queue's only reader, so a batch counted here is
		// still there to take.
		for n < width && len(l.queue) > 0 {
			next := <-l.queue
			group, n = append(group, next), n+len(next)
		}
		l.buildGroup(group)
	}
}

// buildGroup seals a group of batches, in order, into one segment under the
// librarian's model and publishes it. When a group of several fails, its
// batches are rebuilt one at a time, so only the batch at fault is lost.
// Failures are recorded for the next Flush; the pipeline goes on.
func (l *Librarian) buildGroup(group [][]store.Document) {
	if gate := l.testBuildGate; gate != nil {
		gate()
	}
	start := time.Now()
	build := l.testBuild
	if build == nil {
		build = func(docs []store.Document) (*segment, error) {
			return buildSegment(l.name, docs, l.analyzer, l.skip, l.model)
		}
	}
	docs := slices.Concat(group...)
	sg, err := build(docs)
	switch {
	case err != nil && len(group) > 1:
		for i := range group {
			l.buildGroup(group[i : i+1])
		}
		return
	case err != nil:
		l.fail(fmt.Errorf("librarian: ingest into %q: %w", l.name, err))
	default:
		l.appendSegment(sg)
		l.docsIndexed.Add(uint64(len(docs)))
		l.batchesDone.Add(uint64(len(group)))
		if m := l.metrics.Load(); m != nil {
			m.docsIndexed.Add(uint64(len(docs)))
			m.batches.Add(uint64(len(group)))
			m.buildSeconds.ObserveDuration(time.Since(start))
			m.queueLen.Set(int64(len(l.queue)))
		}
	}
	l.batchesRetired(len(group))
}

// Close stops the ingest pipeline: no new Ingest is accepted, queued
// batches are still built and published, and Close returns once the builder
// and background merges have drained. Queries (ServeConn, Engine, Store) keep
// working against the final manifest; further Ingest calls fail with
// ErrLibrarianClosed. Close is idempotent, and on a librarian that never
// ingested there is nothing to stop.
func (l *Librarian) Close() error {
	l.qmu.Lock()
	if l.closed {
		l.qmu.Unlock()
		return nil
	}
	l.closed = true
	started := l.started
	l.qmu.Unlock()
	close(l.closing) // an Ingest waiting for the slot or for room gives up
	if started {
		l.sendSlot <- struct{}{} // no Ingest sends after this
		close(l.queue)
		l.builder.Wait()
	}
	l.mergeWG.Wait()
	return nil
}

// Compact synchronously merges every segment present when it is called into
// one; a ctx already done stops it before the merge starts. Concurrent ingest
// may leave newer segments unmerged.
func (l *Librarian) Compact(ctx context.Context) error {
	l.mergeMu.Lock()
	defer l.mergeMu.Unlock()
	m := l.man.Load()
	if len(m.segs) <= 1 {
		return nil
	}
	err := ctx.Err()
	if err == nil {
		err = l.mergeRange(m, 0, len(m.segs))
	}
	if err != nil {
		return fmt.Errorf("librarian: compact %q: %w", l.name, err)
	}
	return nil
}

// maybeMerge schedules a background compaction pass if one is not already
// running. The pass repeatedly merges the first run of ≥ MergeFanIn
// adjacent same-tier segments until no run qualifies — adjacency is
// required because doc ids are positional: merging non-adjacent segments
// would renumber documents between them.
func (l *Librarian) maybeMerge() {
	if l.cfg.MergeFanIn < 0 {
		return
	}
	if !l.merging.CompareAndSwap(false, true) {
		return
	}
	l.mergeWG.Add(1)
	go func() {
		defer l.mergeWG.Done()
		var err error
		l.mergeMu.Lock()
		for err == nil {
			m := l.man.Load()
			i, j := l.findRun(m)
			if j == i {
				break
			}
			err = l.mergeRange(m, i, j)
		}
		l.mergeMu.Unlock()
		l.merging.Store(false)
		if err != nil {
			// The failed run stays; the next ingested segment retries it.
			l.fail(fmt.Errorf("librarian: background merge in %q: %w", l.name, err))
			return
		}
		// A segment published after the pass last read the manifest found the
		// flag still set and started no pass of its own: look once more, now
		// that one can start.
		if i, j := l.findRun(l.man.Load()); j > i {
			l.maybeMerge()
		}
	}()
}

// findRun returns the first run [i, j) of at least MergeFanIn adjacent
// segments sharing a tier, or (0, 0) if none qualifies.
func (l *Librarian) findRun(m *manifest) (int, int) {
	fan := l.fanIn()
	for i := 0; i < len(m.segs); {
		tier := l.tierOf(m.segs[i].Index.NumDocs())
		j := i + 1
		for j < len(m.segs) && l.tierOf(m.segs[j].Index.NumDocs()) == tier {
			j++
		}
		if j-i >= fan {
			return i, j
		}
		i = j
	}
	return 0, 0
}

// mergeRange merges segments [i, j) of m into one and splices the result
// into the current manifest at the same position. The caller holds mergeMu
// and read m under it: merges are the only publications that move or replace
// segments, and ingest only appends behind them, so [i, j) still names the
// same segments when the merge publishes.
func (l *Librarian) mergeRange(m *manifest, i, j int) error {
	start := time.Now()
	merged, err := l.newManifest(m.segs[i:j]).merged()
	if err != nil {
		return fmt.Errorf("merge %d segments: %w", j-i, err)
	}
	l.publish(func(cur *manifest) *manifest {
		segs := append(append(append(make([]*segment, 0, len(cur.segs)-(j-i)+1),
			cur.segs[:i]...), merged), cur.segs[j:]...)
		return l.newManifest(segs)
	})
	l.mergesDone.Add(1)
	if lm := l.metrics.Load(); lm != nil {
		lm.merges.Inc()
		lm.mergeSeconds.ObserveDuration(time.Since(start))
	}
	return nil
}

// SegmentInfo describes one live segment.
type SegmentInfo struct {
	Base       uint32 // global doc id of the segment's first document
	Docs       uint32
	Tier       int
	IndexBytes uint64
	StoreBytes uint64
}

// SegmentStats is a point-in-time snapshot of the segmented collection and
// its ingest pipeline.
type SegmentStats struct {
	Segments  []SegmentInfo
	TotalDocs uint32
	Epoch     uint64

	QueueLen int // batches waiting to be built
	QueueCap int

	DocsQueued     uint64 // accepted by Ingest
	DocsIndexed    uint64 // built and published
	BatchesBuilt   uint64
	Merges         uint64
	IngestFailures uint64
	QueueFullWaits uint64 // Ingest calls that hit a full queue
}

// SegmentStats reports the current manifest and pipeline counters.
func (l *Librarian) SegmentStats() SegmentStats {
	m := l.man.Load()
	s := SegmentStats{
		Segments:       make([]SegmentInfo, len(m.segs)),
		TotalDocs:      m.total,
		Epoch:          l.epoch.Load(),
		QueueCap:       l.queueDepth(),
		DocsIndexed:    l.docsIndexed.Load(), // first: DocsQueued never trails it
		DocsQueued:     l.docsQueued.Load(),
		BatchesBuilt:   l.batchesDone.Load(),
		Merges:         l.mergesDone.Load(),
		IngestFailures: l.ingestFailures.Load(),
		QueueFullWaits: l.queueFullWaits.Load(),
	}
	for i, sg := range m.segs {
		s.Segments[i] = SegmentInfo{
			Base:       sg.Base,
			Docs:       sg.Index.NumDocs(),
			Tier:       l.tierOf(sg.Index.NumDocs()),
			IndexBytes: sg.Index.SizeBytes(),
			StoreBytes: sg.store.CompressedSize(),
		}
	}
	l.qmu.Lock()
	if l.started {
		s.QueueLen = len(l.queue)
	}
	l.qmu.Unlock()
	return s
}
