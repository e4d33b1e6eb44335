// Collection selection: the extension the paper's analysis points to —
// "net savings are possible only if, given a query, it can be reliably
// determined that many of the subcollections can be neglected." A CV
// receptionist already holds every subcollection's vocabulary, so
// Options.TopR ranks the librarians per query (CORI-style) and contacts only
// the R most promising.
//
// This example sweeps R over 12 synthetic subcollections and reports how
// much of the full fan-out's top 20 survives at each R, and at what work.
//
//	go run ./examples/selection
package main

import (
	"fmt"
	"log"

	"teraphim"
	"teraphim/internal/trecsynth"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := teraphim.DefaultCorpusConfig()
	cfg.Subs = nil
	for i := 0; i < 12; i++ {
		cfg.Subs = append(cfg.Subs, trecsynth.SubSpec{Name: fmt.Sprintf("S%02d", i), NumDocs: 150})
	}
	cfg.VocabSize = 5000
	cfg.NumTopics = 24
	cfg.NumShortQueries = 10
	cfg.NumLongQueries = 0
	corpus, err := teraphim.GenerateCorpus(cfg)
	if err != nil {
		return err
	}

	analyzer := teraphim.NewAnalyzer(teraphim.WithoutStopwords(), teraphim.WithoutStemming())
	var libs []*teraphim.Librarian
	var names []string
	for _, sub := range corpus.Subcollections {
		lib, err := teraphim.BuildLibrarianWith(sub.Name, sub.Docs, teraphim.BuildOptions{Analyzer: analyzer})
		if err != nil {
			return err
		}
		libs = append(libs, lib)
		names = append(names, sub.Name)
	}
	dialer := teraphim.NewInProcessDialer(libs, teraphim.LinkConfig{})
	pool, err := teraphim.ConnectPool(dialer, names, teraphim.ReceptionistConfig{Analyzer: analyzer})
	if err != nil {
		return err
	}
	defer dialer.Wait() // after pool.Close, below: the links drain once closed
	defer pool.Close()
	if _, err := pool.SetupVocabulary(); err != nil {
		return err
	}

	queries := corpus.QueriesOf(trecsynth.ShortQuery)
	fmt.Printf("%d subcollections, %d queries\n\n", len(names), len(queries))
	fmt.Printf("%-10s %16s %16s\n", "librarians", "overlap@20 (%)", "postings vs full")
	for _, r := range []int{1, 2, 3, 6, 12} {
		var overlap, postings, fullPostings float64
		for _, q := range queries {
			full, err := pool.Query(teraphim.ModeCV, q.Text, 20, teraphim.Options{})
			if err != nil {
				return err
			}
			top, err := pool.Query(teraphim.ModeCV, q.Text, 20, teraphim.Options{TopR: r})
			if err != nil {
				return err
			}
			inFull := map[string]bool{}
			for _, a := range full.Answers {
				inFull[a.Key()] = true
			}
			hits := 0
			for _, a := range top.Answers {
				if inFull[a.Key()] {
					hits++
				}
			}
			overlap += float64(hits) / float64(max(len(full.Answers), 1))
			postings += float64(top.Trace.LibrarianWork().PostingsDecoded)
			fullPostings += float64(full.Trace.LibrarianWork().PostingsDecoded)
		}
		fmt.Printf("top %-6d %15.1f%% %15.1f%%\n", r,
			100*overlap/float64(len(queries)), 100*postings/fullPostings)
	}
	fmt.Println("\nA few well-chosen librarians keep most of the top 20 at a fraction of the")
	fmt.Println("index work: the paper's route to making distribution pay for itself.")
	return nil
}
