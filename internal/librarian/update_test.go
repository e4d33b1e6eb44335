package librarian

import (
	"sync"
	"testing"

	"teraphim/internal/protocol"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

func newUpdatable(t *testing.T) *Librarian {
	t.Helper()
	u, err := Build("UP", []store.Document{
		{Title: "d0", Text: "original cats and dogs"},
		{Title: "d1", Text: "original fish"},
	}, BuildOptions{Analyzer: textproc.NewAnalyzer(textproc.WithoutStopwords(), textproc.WithoutStemming())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	return u
}

// TestEpochAndOnUpdate pins the cache-invalidation signal: every
// publication bumps the epoch and then fires the registered callbacks in
// order, after the new collection is already serving.
func TestEpochAndOnUpdate(t *testing.T) {
	u := newUpdatable(t)
	if u.epoch.Load() != 0 {
		t.Fatalf("fresh epoch = %d, want 0", u.epoch.Load())
	}
	var fired []string
	u.OnUpdate(func() {
		// The callback runs after the swap: the new collection is visible.
		ranking, err := u.Engine().Rank("swapped", 5, nil)
		if err != nil || len(ranking.Results) == 0 {
			t.Errorf("callback ran before the swap: %v, %v", ranking.Results, err)
		}
		fired = append(fired, "first")
	})
	u.OnUpdate(nil) // must be ignored, not panic later
	u.OnUpdate(func() { fired = append(fired, "second") })

	ingestFlush(t, u, []store.Document{{Title: "n0", Text: "swapped collection"}})
	if u.epoch.Load() != 1 {
		t.Fatalf("epoch after ingest = %d, want 1", u.epoch.Load())
	}
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "second" {
		t.Fatalf("callbacks fired = %v, want [first second] in order", fired)
	}
	if u.Name() != "UP" {
		t.Fatal("name lost")
	}
}

// TestServeAcrossIngest drives a wire session through a publication:
// requests before it see the old collection, requests after see the new
// one, on the same connection, and existing documents keep their ids.
func TestServeAcrossIngest(t *testing.T) {
	u := newUpdatable(t)
	before := u.Engine()
	client := taggedSession(t, u)
	wr := &protocol.Writer{W: client, Tagged: true}
	rd := &protocol.Reader{R: client, Tagged: true}
	ask := func(query string) []protocol.ScoredDoc {
		t.Helper()
		if _, err := wr.Write(1, &protocol.RankQuery{Query: query, K: 5}); err != nil {
			t.Fatal(err)
		}
		reply, _, _, err := rd.Read()
		if err != nil {
			t.Fatal(err)
		}
		return rankOf(t, reply).Results
	}
	if got := ask("ferrets"); len(got) != 0 {
		t.Fatalf("pre-ingest ferrets: %+v", got)
	}
	ingestFlush(t, u, []store.Document{{Title: "d2", Text: "only ferrets now"}})
	if got := ask("ferrets"); len(got) != 1 || got[0].Doc != 2 {
		t.Fatalf("post-ingest ferrets: %+v, want doc 2", got)
	}
	if got := ask("cats"); len(got) != 1 || got[0].Doc != 0 {
		t.Fatalf("post-ingest cats: %+v, want doc 0", got)
	}
	// Engine and Store follow the collection; a snapshot taken earlier stays
	// intact for whoever holds it.
	if doc, err := u.Store().Fetch(2); err != nil || doc.Title != "d2" || u.Store().NumDocs() != 3 {
		t.Fatalf("merged store doc 2: %+v, %v", doc, err)
	}
	if r, err := before.Rank("ferrets", 5, nil); err != nil || len(r.Results) != 0 {
		t.Fatalf("old snapshot: %v, %v", r.Results, err)
	}
}

// TestConcurrentQueriesDuringIngest exercises publication and the memoised
// merged view under the race detector: readers and a writer run
// simultaneously.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	u := newUpdatable(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := u.Engine().Rank("cats ferrets", 5, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		ingestFlush(t, u, []store.Document{{Title: "c", Text: "cats and ferrets"}})
	}
	close(stop)
	wg.Wait()
}
