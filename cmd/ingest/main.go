// Command ingest demonstrates streaming ingestion under live query load: an
// in-process librarian keeps answering a fleet of query clients
// while document batches stream in through the bounded ingest queue, a
// background builder seals them into segments and the size-tiered policy
// merges them down. The report shows both sides of the trade — ingest
// throughput (docs/sec) and query throughput (queries/sec) measured while
// the collection was growing — plus the segment bookkeeping: segments live,
// merges installed, queue-full waits (backpressure events).
//
// Usage:
//
//	ingest [-seed 500] [-docs 2000] [-batch 50] [-clients 4] [-k 10]
//	       [-queue 16] [-fanin 4] [-minseg 256] [-compact]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/librarian"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ingest:", err)
		os.Exit(1)
	}
}

var vocab = []string{
	"harbor", "tide", "anchor", "compass", "lantern", "storm", "reef",
	"whale", "gull", "mast", "salt", "chart", "drift", "squall", "keel",
	"beacon", "current", "fathom", "horizon", "jetty",
}

// synthDoc composes a deterministic pseudo-random document.
func synthDoc(rng *rand.Rand, id int) store.Document {
	var sb strings.Builder
	for i := 0; i < 12+rng.Intn(20); i++ {
		sb.WriteString(vocab[rng.Intn(len(vocab))])
		sb.WriteByte(' ')
	}
	return store.Document{Title: fmt.Sprintf("doc-%06d", id), Text: strings.TrimSpace(sb.String())}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	seed := fs.Int("seed", 500, "documents in the initial collection")
	total := fs.Int("docs", 2000, "documents to stream in during the run")
	batch := fs.Int("batch", 50, "documents per ingest batch")
	clients := fs.Int("clients", 4, "concurrent query clients during ingestion")
	k := fs.Int("k", 10, "answers per query")
	queue := fs.Int("queue", 16, "ingest queue depth in batches")
	fanIn := fs.Int("fanin", 4, "size-tier merge fan-in (K adjacent same-tier segments merge)")
	minSeg := fs.Int("minseg", 256, "tier-0 segment width in documents")
	compact := fs.Bool("compact", false, "compact to a single segment after ingestion and report the cost")
	rngSeed := fs.Int64("rngseed", 1, "corpus generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed < 1 || *total < 1 || *batch < 1 || *clients < 1 {
		return fmt.Errorf("-seed, -docs, -batch and -clients must be positive")
	}

	rng := rand.New(rand.NewSource(*rngSeed))
	seedDocs := make([]store.Document, *seed)
	for i := range seedDocs {
		seedDocs[i] = synthDoc(rng, i)
	}
	up, err := librarian.Build("LIVE", seedDocs, librarian.BuildOptions{})
	if err != nil {
		return err
	}
	defer up.Close()
	if err := up.ConfigureIngest(librarian.IngestConfig{
		QueueDepth: *queue, MergeFanIn: *fanIn, MinSegmentDocs: *minSeg,
	}); err != nil {
		return err
	}

	dialer := librarian.NewInProcessDialer([]*librarian.Librarian{up}, simnet.LinkConfig{})
	pool, err := core.NewPool(dialer, []string{"LIVE"}, core.Config{MaxConnsPerLibrarian: *clients})
	if err != nil {
		return err
	}
	defer pool.Close()

	queries := make([]string, 32)
	for i := range queries {
		queries[i] = vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
	}

	// The producer streams batches; clients query CN (no setup state to go
	// stale) until ingestion — including the final Flush — completes.
	ctx := context.Background()
	ingestDone := make(chan error, 1)
	start := time.Now()
	var ingestWall time.Duration
	go func() {
		id := *seed
		for sent := 0; sent < *total; sent += *batch {
			n := *batch
			if left := *total - sent; left < n {
				n = left
			}
			docs := make([]store.Document, n)
			for i := range docs {
				docs[i] = synthDoc(rng, id)
				id++
			}
			if err := up.Ingest(ctx, docs); err != nil {
				ingestDone <- err
				return
			}
		}
		err := up.Flush(ctx)
		ingestWall = time.Since(start)
		ingestDone <- err
	}()

	var queriesDone atomic.Uint64
	stopQueries := make(chan struct{})
	var wg sync.WaitGroup
	qErrs := make(chan error, *clients)
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stopQueries:
					qErrs <- nil
					return
				default:
				}
				if _, err := pool.Query(core.ModeCN, queries[i%len(queries)], *k, core.Options{}); err != nil {
					qErrs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				queriesDone.Add(1)
			}
		}(c)
	}

	ingestErr := <-ingestDone
	close(stopQueries)
	wg.Wait()
	close(qErrs)
	if ingestErr != nil {
		return fmt.Errorf("ingest: %w", ingestErr)
	}
	for err := range qErrs {
		if err != nil {
			return err
		}
	}

	st := up.SegmentStats()
	fmt.Fprintf(w, "collection      %10d docs (%d seeded + %d streamed)\n", st.TotalDocs, *seed, *total)
	fmt.Fprintf(w, "ingest wall     %10.2fs\n", ingestWall.Seconds())
	fmt.Fprintf(w, "ingest rate     %10.1f docs/sec\n", float64(*total)/ingestWall.Seconds())
	fmt.Fprintf(w, "query load      %10d queries by %d clients during ingestion\n", queriesDone.Load(), *clients)
	fmt.Fprintf(w, "query rate      %10.1f queries/sec\n", float64(queriesDone.Load())/ingestWall.Seconds())
	fmt.Fprintf(w, "batches built   %10d (queue depth %d)\n", st.BatchesBuilt, st.QueueCap)
	fmt.Fprintf(w, "segments live   %10d\n", len(st.Segments))
	fmt.Fprintf(w, "merges          %10d\n", st.Merges)
	fmt.Fprintf(w, "queue-full waits%10d (backpressure events)\n", st.QueueFullWaits)
	fmt.Fprintf(w, "epoch           %10d manifest publications\n", st.Epoch)

	if *compact {
		cStart := time.Now()
		if err := up.Compact(ctx); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		st = up.SegmentStats()
		fmt.Fprintf(w, "compacted to    %10d segment(s) in %.2fs\n", len(st.Segments), time.Since(cStart).Seconds())
	}
	return nil
}
