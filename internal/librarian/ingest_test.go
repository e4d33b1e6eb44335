package librarian

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teraphim/internal/huffman"
	"teraphim/internal/protocol"
	"teraphim/internal/store"
)

func newIngestable(t *testing.T, n int, cfg IngestConfig) *Librarian {
	t.Helper()
	u, err := Build("ING", synthCorpus(n), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.ConfigureIngest(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	return u
}

// TestIngestFlushVisibility pins the redesigned API's basic contract: Ingest
// returns on acceptance, Flush returns once the batch is queryable.
func TestIngestFlushVisibility(t *testing.T) {
	u := newIngestable(t, 4, IngestConfig{MergeFanIn: -1})
	ctx := context.Background()

	ingestFlush(t, u, []store.Document{
		{Title: "new-0", Text: "bioluminescent plankton"},
		{Title: "new-1", Text: "bioluminescent algae bloom"},
	})

	rr := rankOf(t, callServer(t, u, &protocol.RankQuery{Query: "bioluminescent", K: 10}))
	if len(rr.Results) != 2 {
		t.Fatalf("ingested docs not ranked: %+v", rr.Results)
	}
	for _, r := range rr.Results {
		if r.Doc != 4 && r.Doc != 5 {
			t.Fatalf("ingested doc got id %d, want 4 or 5", r.Doc)
		}
	}

	st := u.SegmentStats()
	if st.TotalDocs != 6 || st.DocsQueued != 2 || st.DocsIndexed != 2 || st.BatchesBuilt != 1 {
		t.Fatalf("stats after flush: %+v", st)
	}
	if st.Epoch == 0 {
		t.Fatal("epoch did not advance on ingest publication")
	}
	if len(st.Segments) != 2 {
		t.Fatalf("segments = %d, want 2 (merging disabled)", len(st.Segments))
	}

	// An empty batch is a no-op, not an enqueue.
	if err := u.Ingest(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if got := u.SegmentStats().BatchesBuilt; got != 1 {
		t.Fatalf("empty ingest built a batch: %d", got)
	}
}

// TestIngestDoesNotRereadStore: a batch is sealed into a fresh segment, and
// then ranked, without a single read of the existing store.
func TestIngestDoesNotRereadStore(t *testing.T) {
	u := newIngestable(t, 20, IngestConfig{MergeFanIn: -1})
	st := u.Store()
	before := st.Fetches()

	ingestFlush(t, u, []store.Document{{Title: "fresh", Text: "isotope spectrometer"}})

	rr := rankOf(t, callServer(t, u, &protocol.RankQuery{Query: "spectrometer", K: 5}))
	if len(rr.Results) != 1 || rr.Results[0].Doc != 20 {
		t.Fatalf("ingested doc not ranked at id 20: %+v", rr.Results)
	}
	if got := st.Fetches(); got != before {
		t.Fatalf("ingest and ranking read the existing store %d times; want 0", got-before)
	}
}

// TestIngestBackpressureTyped exercises the bounded queue deterministically:
// a gated builder pins the queue full, and an Ingest whose context is
// already cancelled must fail with the typed ErrIngestQueueFull.
func TestIngestBackpressureTyped(t *testing.T) {
	u := newIngestable(t, 2, IngestConfig{QueueDepth: 1, MergeFanIn: -1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	u.testBuildGate = func() { entered <- struct{}{}; <-gate }
	ctx := context.Background()

	doc := func(i int) []store.Document {
		return []store.Document{{Title: fmt.Sprintf("bp-%d", i), Text: "quasar pulsar"}}
	}
	// Batch 0 is picked up by the worker, which blocks in its build.
	if err := u.Ingest(ctx, doc(0)); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Batch 1 fills the one queue slot.
	if err := u.Ingest(ctx, doc(1)); err != nil {
		t.Fatal(err)
	}
	// Batch 2 finds the queue full and its context dead: typed failure.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	err := u.Ingest(dead, doc(2))
	if !errors.Is(err, ErrIngestQueueFull) {
		t.Fatalf("full-queue ingest error = %v, want ErrIngestQueueFull", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not carry the context cause: %v", err)
	}
	if got := u.SegmentStats().QueueFullWaits; got == 0 {
		t.Fatal("queue-full wait not counted")
	}

	close(gate)
	if err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := u.SegmentStats()
	if st.TotalDocs != 4 || st.DocsIndexed != 2 {
		t.Fatalf("after releasing gate: %+v", st)
	}
}

// TestFlushReturnsAsyncBuildError pins the error channel for work that fails
// off the caller's goroutine: the first failure since the last Flush is
// returned by the next Flush, then cleared.
func TestFlushReturnsAsyncBuildError(t *testing.T) {
	u := newIngestable(t, 2, IngestConfig{MergeFanIn: -1})
	boom := errors.New("synthetic build failure")
	u.testBuild = func(docs []store.Document) (*segment, error) { return nil, boom }
	ctx := context.Background()

	if err := u.Ingest(ctx, []store.Document{{Title: "x", Text: "doomed"}}); err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(ctx); !errors.Is(err, boom) {
		t.Fatalf("Flush error = %v, want the async build failure", err)
	}
	if err := u.Flush(ctx); err != nil {
		t.Fatalf("second Flush should be clean, got %v", err)
	}
	st := u.SegmentStats()
	if st.IngestFailures != 1 || st.TotalDocs != 2 || st.DocsIndexed != 0 {
		t.Fatalf("failed batch leaked into the collection: %+v", st)
	}
}

// gatedBuilds holds the first build at its start until release is called
// (or the test ends), and counts the builds: wait returns once the first has
// started.
func gatedBuilds(t *testing.T, u *Librarian) (builds *atomic.Int32, wait, release func()) {
	builds = new(atomic.Int32)
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	u.testBuildGate = func() {
		if builds.Add(1) == 1 {
			entered <- struct{}{}
			<-gate
		}
	}
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before newIngestable's Close, which waits for the build
	return builds, func() { <-entered }, release
}

// titledBatch is n documents titled prefix-0 .. prefix-(n-1).
func titledBatch(prefix string, n int) []store.Document {
	docs := make([]store.Document, n)
	for j := range docs {
		docs[j] = store.Document{Title: fmt.Sprintf("%s-%d", prefix, j), Text: "cormorant estuary"}
	}
	return docs
}

// assertTitles checks that the documents at global ids from, from+1, ...
// carry titles, in that order.
func assertTitles(t *testing.T, u *Librarian, from uint32, titles []string) {
	t.Helper()
	ids := make([]uint32, len(titles))
	for i := range ids {
		ids[i] = from + uint32(i)
	}
	fr := callServer(t, u, &protocol.FetchDocs{Docs: ids}).(*protocol.FetchReply)
	if len(fr.Docs) != len(titles) {
		t.Fatalf("fetched %d documents, want %d", len(fr.Docs), len(titles))
	}
	for i, d := range fr.Docs {
		if d.Title != titles[i] {
			t.Fatalf("doc %d is %q, want %q", ids[i], d.Title, titles[i])
		}
	}
}

// TestGroupCommit: batches that queue behind a busy build are sealed as one
// segment with one publication, split at the tier-0 width
// (MinSegmentDocs·fan-in), and keep their arrival order in the doc ids.
func TestGroupCommit(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       IngestConfig
		batchDocs int
		groups    int // builds after the gate opens, for batches 1..4
	}{
		{"backlog", IngestConfig{MergeFanIn: -1}, 2, 1},
		// Tier 0 is 2·4 = 8 documents wide: batches 1-3 fill it, 4 is alone.
		{"width", IngestConfig{MergeFanIn: -1, MinSegmentDocs: 2}, 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := newIngestable(t, 2, tc.cfg)
			builds, wait, release := gatedBuilds(t, u)
			ctx := context.Background()
			var titles []string
			for i := 0; i < 5; i++ {
				batch := titledBatch(fmt.Sprintf("gc%d", i), tc.batchDocs)
				if err := u.Ingest(ctx, batch); err != nil {
					t.Fatal(err)
				}
				for _, d := range batch {
					titles = append(titles, d.Title)
				}
				if i == 0 {
					wait() // batch 0 is in its build; 1..4 queue behind it
				}
			}
			epoch := u.epoch.Load()
			release()
			if err := u.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if got := builds.Load(); got != int32(1+tc.groups) {
				t.Fatalf("%d builds, want %d", got, 1+tc.groups)
			}
			if got := u.epoch.Load() - epoch; got != uint64(1+tc.groups) {
				t.Fatalf("%d publications after the gate opened, want %d", got, 1+tc.groups)
			}
			st := u.SegmentStats()
			if st.BatchesBuilt != 5 || st.DocsIndexed != uint64(5*tc.batchDocs) || len(st.Segments) != 2+tc.groups {
				t.Fatalf("after the backlog: %+v", st)
			}
			assertTitles(t, u, 2, titles)
		})
	}
}

// TestGroupCommitFailureIsolation: a group whose build fails is rebuilt
// batch by batch, so only the batch at fault is lost, its error reaches
// Flush once, and its neighbours publish in order.
func TestGroupCommitFailureIsolation(t *testing.T) {
	u := newIngestable(t, 2, IngestConfig{MergeFanIn: -1})
	boom := errors.New("poisoned batch")
	u.testBuild = func(docs []store.Document) (*segment, error) {
		for _, d := range docs {
			if d.Title == "poison-0" {
				return nil, boom
			}
		}
		return buildSegment(u.name, docs, u.analyzer, u.skip, u.model)
	}
	builds, wait, release := gatedBuilds(t, u)
	ctx := context.Background()
	for i, prefix := range []string{"head", "before", "poison", "after"} {
		if err := u.Ingest(ctx, titledBatch(prefix, []int{1, 2, 1, 1}[i])); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wait() // the other three queue as one group
		}
	}
	release()
	if err := u.Flush(ctx); !errors.Is(err, boom) {
		t.Fatalf("Flush error = %v, want the poisoned batch's", err)
	}
	if err := u.Flush(ctx); err != nil {
		t.Fatalf("second Flush should be clean, got %v", err)
	}
	// head, the group of three, then each of its batches alone.
	if got := builds.Load(); got != 5 {
		t.Fatalf("%d builds, want 5", got)
	}
	st := u.SegmentStats()
	if st.IngestFailures != 1 || st.BatchesBuilt != 3 || st.DocsIndexed != 4 || st.TotalDocs != 6 {
		t.Fatalf("after the poisoned group: %+v", st)
	}
	assertTitles(t, u, 2, []string{"head-0", "before-0", "before-1", "after-0"})
}

// TestFlushWaitsForEarlierBatch: a Flush that starts while batch 1 is
// still building returns only once batch 1 is searchable, though batch 2 is
// ingested after the call. The count of retired batches Flush waits on is a
// watermark only because one builder retires batches in queue order.
func TestFlushWaitsForEarlierBatch(t *testing.T) {
	u := newIngestable(t, 2, IngestConfig{MergeFanIn: -1})
	_, wait, release := gatedBuilds(t, u)
	ctx := context.Background()
	if err := u.Ingest(ctx, titledBatch("first", 1)); err != nil {
		t.Fatal(err)
	}
	wait()
	flushed := make(chan error, 1)
	go func() { flushed <- u.Flush(ctx) }()
	time.Sleep(10 * time.Millisecond) // let Flush read its target
	if err := u.Ingest(ctx, titledBatch("second", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned %v while batch 1 was still building", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	assertTitles(t, u, 2, []string{"first-0"})
}

// TestCloseDrainsAndRejects: Close stops intake, still builds what was
// queued, and is idempotent; post-Close Ingest/ConfigureIngest fail typed.
func TestCloseDrainsAndRejects(t *testing.T) {
	u := newIngestable(t, 2, IngestConfig{QueueDepth: 4, MergeFanIn: -1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	u.testBuildGate = func() { entered <- struct{}{}; <-gate }
	ctx := context.Background()

	doc := func(i int) []store.Document {
		return []store.Document{{Title: fmt.Sprintf("cl-%d", i), Text: "meridian sextant"}}
	}
	if err := u.Ingest(ctx, doc(0)); err != nil {
		t.Fatal(err)
	}
	<-entered // worker blocked mid-build
	if err := u.Ingest(ctx, doc(1)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { u.Close(); close(done) }()
	// Wait until Close has flipped the closed flag…
	for {
		if err := u.Ingest(ctx, doc(9)); errors.Is(err, ErrLibrarianClosed) {
			break
		} else if err != nil {
			t.Fatalf("unexpected ingest error while closing: %v", err)
		}
	}
	// …then release the builder: Close must still drain batch 1.
	close(gate)
	<-done

	st := u.SegmentStats()
	if st.TotalDocs < 4 {
		t.Fatalf("Close dropped queued batches: %+v", st)
	}
	if err := u.Ingest(ctx, doc(3)); !errors.Is(err, ErrLibrarianClosed) {
		t.Fatalf("post-Close ingest error = %v, want ErrLibrarianClosed", err)
	}
	if err := u.ConfigureIngest(IngestConfig{}); !errors.Is(err, ErrLibrarianClosed) {
		t.Fatalf("post-Close configure error = %v, want ErrLibrarianClosed", err)
	}
	if err := u.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Serving continues against the final manifest.
	rr := rankOf(t, callServer(t, u, &protocol.RankQuery{Query: "sextant", K: 10}))
	if len(rr.Results) == 0 {
		t.Fatal("closed librarian stopped answering queries")
	}
}

// TestMergePolicySizeTiered drives the background size-tiered policy: many
// tier-0 single-doc segments must be folded by runs of MergeFanIn without
// changing the collection's contents or ids.
func TestMergePolicySizeTiered(t *testing.T) {
	u := newIngestable(t, 1, IngestConfig{MinSegmentDocs: 1, MergeFanIn: 2, QueueDepth: 32})
	ctx := context.Background()
	for i := 0; i < 15; i++ {
		if err := u.Ingest(ctx, []store.Document{
			{Title: fmt.Sprintf("m-%02d", i), Text: fmt.Sprintf("glacier moraine crevasse g%d", i)},
		}); err != nil {
			t.Fatal(err)
		}
		// One segment per batch: without the Flush, batches queued behind a
		// build would be sealed together.
		if err := u.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil { // waits out the background merge pass
		t.Fatal(err)
	}

	st := u.SegmentStats()
	if st.TotalDocs != 16 {
		t.Fatalf("merging changed the doc count: %+v", st)
	}
	if st.Merges == 0 {
		t.Fatalf("no background merges ran: %+v", st)
	}
	if len(st.Segments) >= 16 {
		t.Fatalf("segment count not reduced: %d segments", len(st.Segments))
	}
	var base uint32
	for i, sg := range st.Segments {
		if sg.Base != base {
			t.Fatalf("segment %d base %d, want %d", i, sg.Base, base)
		}
		base += sg.Docs
	}
	// Contents intact: every ingested doc still ranks under its unique term.
	for i := 0; i < 15; i++ {
		rr := rankOf(t, callServer(t, u, &protocol.RankQuery{Query: fmt.Sprintf("g%d", i), K: 3}))
		if len(rr.Results) != 1 || rr.Results[0].Doc != uint32(1+i) {
			t.Fatalf("doc m-%02d lost or renumbered after merges: %+v", i, rr.Results)
		}
	}
}

// TestEpochOnUpdateUnderMergeStorm: every publication — ingested batch,
// background merge, Compact — must bump the epoch exactly once and fire
// OnUpdate exactly once, even when they race.
func TestEpochOnUpdateUnderMergeStorm(t *testing.T) {
	u := newIngestable(t, 1, IngestConfig{MinSegmentDocs: 1, MergeFanIn: 2, QueueDepth: 32})
	var fired atomic.Uint64
	u.OnUpdate(func() { fired.Add(1) })
	ctx := context.Background()

	ingestDone := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := u.Ingest(ctx, []store.Document{
				{Title: fmt.Sprintf("s-%02d", i), Text: "storm surge barometer"},
			}); err != nil {
				ingestDone <- err
				return
			}
			// One publication per batch, as the epoch floor below counts.
			if err := u.Flush(ctx); err != nil {
				ingestDone <- err
				return
			}
		}
		ingestDone <- nil
	}()
	for i := 0; i < 4; i++ {
		if err := u.Compact(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-ingestDone; err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}

	if got, want := fired.Load(), u.epoch.Load(); got != want {
		t.Fatalf("OnUpdate fired %d times over %d epochs", got, want)
	}
	if u.epoch.Load() < 21 { // 20 batches + ≥1 compaction/merge
		t.Fatalf("epoch %d implausibly low", u.epoch.Load())
	}
	if got := u.SegmentStats().TotalDocs; got != 21 {
		t.Fatalf("merges lost or duplicated documents: %d docs", got)
	}
}

// TestSnapshotNeverMixture runs a seed-framing wire session while batches
// land and merges fire: every ranking must reflect exactly one published
// manifest — its result count is a cumulative batch total, never a value in
// between — and counts only grow, since dispatch snapshots per frame.
func TestSnapshotNeverMixture(t *testing.T) {
	u := newIngestable(t, 3, IngestConfig{MinSegmentDocs: 1, MergeFanIn: 2, QueueDepth: 32})
	ctx := context.Background()

	sizes := []int{1, 2, 3, 4}
	valid := map[int]bool{3: true}
	cum := 3
	for _, s := range sizes {
		cum += s
		valid[cum] = true
	}

	client, server := net.Pipe()
	srvDone := make(chan struct{})
	go func() { defer close(srvDone); _ = u.ServeConn(server) }()
	defer func() { client.Close(); server.Close(); <-srvDone }()

	ingestDone := make(chan error, 1)
	go func() {
		for bi, s := range sizes {
			batch := make([]store.Document, s)
			for j := range batch {
				batch[j] = store.Document{Title: fmt.Sprintf("b%d-%d", bi, j), Text: "ubiquitous sentinel beacon"}
			}
			if err := u.Ingest(ctx, batch); err != nil {
				ingestDone <- err
				return
			}
		}
		ingestDone <- u.Flush(ctx)
	}()

	// The seed corpus contains no "sentinel", so the hit count equals the
	// ingested-doc count of whichever manifest answered: 0, 1, 3, 6 or 10.
	last := 0
	for q := 0; q < 200; q++ {
		if _, err := protocol.WriteMessage(client, &protocol.RankQuery{Query: "sentinel", K: 1000}); err != nil {
			t.Fatal(err)
		}
		reply, _, err := protocol.ReadMessage(client)
		if err != nil {
			t.Fatal(err)
		}
		rr, ok := reply.(*protocol.RankReply)
		if !ok {
			t.Fatalf("query %d: got %T", q, reply)
		}
		n := len(rr.Results)
		if !valid[n+3] {
			t.Fatalf("query %d saw %d sentinel docs — a mixture of manifests", q, n)
		}
		if n < last {
			t.Fatalf("query %d count went backwards: %d after %d", q, n, last)
		}
		last = n
	}

	if err := <-ingestDone; err != nil {
		t.Fatal(err)
	}
	rr := rankOf(t, callServer(t, u, &protocol.RankQuery{Query: "sentinel", K: 1000}))
	if len(rr.Results) != 10 {
		t.Fatalf("after flush: %d sentinel docs, want 10", len(rr.Results))
	}
}

// TestBackgroundMergeLeavesNoRun pins the merge policy's invariant rather
// than one interleaving: once every batch is flushed and Close has waited out
// the merges, no run of MergeFanIn same-tier segments is left. A pass that
// ended just as the segment completing a run was published used to leave it
// unmerged until some later ingest — for ever, after the last one.
func TestBackgroundMergeLeavesNoRun(t *testing.T) {
	u := newIngestable(t, 1, IngestConfig{MinSegmentDocs: 1, MergeFanIn: 2, QueueDepth: 32})
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		if err := u.Ingest(ctx, []store.Document{{Title: fmt.Sprintf("w-%02d", i), Text: "ballast bilge"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	if i, j := u.findRun(u.man.Load()); i != 0 || j != 0 {
		t.Fatalf("segments [%d, %d) still qualify for a merge after Close: %+v", i, j, u.SegmentStats().Segments)
	}
}

// TestFlushReturnsBackgroundMergeError: a merge that fails off every
// caller's goroutine is counted and reported by the next Flush like a failed
// build, and the manifest it could not merge keeps serving. The failure is a
// segment whose text is coded under a model of its own, which store.Concat
// refuses.
func TestFlushReturnsBackgroundMergeError(t *testing.T) {
	u := newIngestable(t, 4, IngestConfig{MinSegmentDocs: 8, MergeFanIn: 2})
	u.testBuild = func(docs []store.Document) (*segment, error) {
		foreign, err := huffman.NewTextModel([]string{docs[0].Text})
		if err != nil {
			return nil, err
		}
		return buildSegment(u.name, docs, u.analyzer, u.skip, foreign)
	}
	ctx := context.Background()
	if err := u.Ingest(ctx, []store.Document{{Title: "z0", Text: "zeppelin mooring"}, {Title: "z1", Text: "zeppelin hangar"}}); err != nil {
		t.Fatal(err)
	}
	// The merge may end before or after the batch's own Flush returns; Close
	// waits for it, so one of the two Flushes carries its error.
	err := u.Flush(ctx)
	u.Close()
	if err == nil {
		err = u.Flush(ctx)
	}
	if !errors.Is(err, store.ErrModelMismatch) {
		t.Fatalf("Flush error = %v, want the background merge's ErrModelMismatch", err)
	}
	if err := u.Flush(ctx); err != nil {
		t.Fatalf("the error was not cleared: %v", err)
	}
	st := u.SegmentStats()
	if st.IngestFailures != 1 || st.Merges != 0 || len(st.Segments) != 2 || st.TotalDocs != 6 {
		t.Fatalf("after the failed merge: %+v", st)
	}
	rr := rankOf(t, callServer(t, u, &protocol.RankQuery{Query: "zeppelin", K: 5}))
	if len(rr.Results) != 2 || rr.Results[0].Doc+rr.Results[1].Doc != 4+5 {
		t.Fatalf("unmerged manifest ranks %+v, want docs 4 and 5", rr.Results)
	}
	fr := callServer(t, u, &protocol.FetchDocs{Docs: []uint32{0, 5}}).(*protocol.FetchReply)
	if len(fr.Docs) != 2 || fr.Docs[0].Title != "doc-000" || string(fr.Docs[1].Data) != "zeppelin hangar" {
		t.Fatalf("unmerged manifest fetches %+v", fr.Docs)
	}
}
