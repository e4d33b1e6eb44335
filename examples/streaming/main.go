// Streaming ingestion: grow a live collection with Ingest/Flush while
// queries keep running, then compact the segments back to one.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"

	"teraphim"
)

func main() {
	seed := []teraphim.Document{
		{Title: "intro", Text: "Text collections have traditionally been located at a single site " +
			"and managed as a monolithic whole."},
		{Title: "distribution", Text: "Distributed information retrieval spreads a collection over " +
			"several hosts; librarians manage subcollections and receptionists broker queries."},
	}

	up, err := teraphim.BuildLibrarian("LIVE", seed)
	if err != nil {
		log.Fatal(err)
	}
	defer up.Close()
	if err := up.ConfigureIngest(teraphim.IngestConfig{
		MinSegmentDocs: 2,
		MergeFanIn:     2,
	}); err != nil {
		log.Fatal(err)
	}

	dialer := teraphim.NewInProcessDialer([]*teraphim.Librarian{up}, teraphim.LinkConfig{})
	pool, err := teraphim.ConnectPool(dialer, []string{"LIVE"}, teraphim.ReceptionistConfig{
		Cache: &teraphim.CacheConfig{},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	// Every published batch or merge bumps the epoch; stale cached results
	// must not outlive the collection they were computed from.
	up.OnUpdate(pool.InvalidateCache)

	ctx := context.Background()
	batches := [][]teraphim.Document{
		{{Title: "ranking", Text: "Ranked queries assign each document a similarity score and " +
			"present documents in decreasing similarity order."}},
		{{Title: "efficiency", Text: "Network bandwidth and round trip times are crucial to the " +
			"efficiency of distributed query evaluation."}},
		{{Title: "updates", Text: "Streaming ingestion appends new documents as immutable segments " +
			"instead of rebuilding the whole collection."}},
	}

	for i, batch := range batches {
		if err := up.Ingest(ctx, batch); err != nil {
			log.Fatal(err)
		}
		if err := up.Flush(ctx); err != nil {
			log.Fatal(err)
		}
		res, err := pool.Query(teraphim.ModeCN, "distributed ranked retrieval", 3, teraphim.Options{})
		if err != nil {
			log.Fatal(err)
		}
		st := up.SegmentStats()
		fmt.Printf("after batch %d: %d docs in %d segment(s), epoch %d, top answer %q\n",
			i+1, st.TotalDocs, len(st.Segments), st.Epoch, res.Answers[0].Key())
	}

	// Compact folds every segment into one — rankings are identical before
	// and after by construction, only the segment count changes.
	if err := up.Compact(ctx); err != nil {
		log.Fatal(err)
	}
	st := up.SegmentStats()
	fmt.Printf("after compact: %d docs in %d segment(s), %d merge(s) total\n",
		st.TotalDocs, len(st.Segments), st.Merges)
}
