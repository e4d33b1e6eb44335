// Collection selection: the extension the paper's analysis points to —
// "net savings are possible only if, given a query, it can be reliably
// determined that many of the subcollections can be neglected." A CV
// receptionist already holds every subcollection's vocabulary, so it can
// rank librarians by a GlOSS-style goodness score and query only the most
// promising ones.
//
// This example splits a synthetic corpus into 12 subcollections, then
// sweeps "query only the top-n librarians" from 1 to 12 and reports how
// much of the full-fleet answer quality survives at each n — together with
// the work saved.
//
// The library now does this natively: Options.TopR applies CORI-style
// selection inside the receptionist (see the README's "Collection
// selection" section). This example keeps the hand-rolled client-side
// variant to show the mechanics.
//
//	go run ./examples/selection
package main

import (
	"fmt"
	"log"
	"math"
	"sort"
	"strings"

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
	// Keep each librarian's vocabulary for selection scoring.
	vocabs := map[string]map[string]uint32{}
	docCounts := map[string]int{}
	for _, sub := range corpus.Subcollections {
		lib, err := teraphim.BuildLibrarianWith(sub.Name, sub.Docs, teraphim.BuildOptions{Analyzer: analyzer})
		if err != nil {
			return err
		}
		libs = append(libs, lib)
		names = append(names, sub.Name)
		v := map[string]uint32{}
		lib.Engine().Index().Terms(func(term string, ft uint32) bool {
			v[term] = ft
			return true
		})
		vocabs[sub.Name] = v
		docCounts[sub.Name] = len(sub.Docs)
	}
	dialer := teraphim.NewInProcessDialer(libs, teraphim.LinkConfig{})
	pool, err := teraphim.ConnectPool(dialer, names, teraphim.ReceptionistConfig{Analyzer: analyzer})
	if err != nil {
		return err
	}
	defer func() {
		pool.Close()
		dialer.Wait()
	}()
	if _, err := pool.SetupVocabulary(); err != nil {
		return err
	}

	queries := corpus.QueriesOf(trecsynth.ShortQuery)
	fmt.Printf("%d subcollections, %d queries\n\n", len(names), len(queries))
	fmt.Printf("%-10s %16s %16s\n", "librarians", "overlap@20 (%)", "postings vs full")

	for _, n := range []int{1, 2, 3, 6, 12} {
		var overlap, full float64
		var postingsSel, postingsFull float64
		for _, q := range queries {
			// Full-fleet CV answer as the reference.
			ref, err := pool.Query(teraphim.ModeCV, q.Text, 20, teraphim.Options{})
			if err != nil {
				return err
			}
			postingsFull += float64(ref.Trace.LibrarianWork().PostingsDecoded)

			// GlOSS-style selection: score each librarian by
			// sum over query terms of ft(lib)/docs(lib) weighted by global idf.
			selected := selectLibrarians(pool.Federation(), vocabs, docCounts, analyzer, q.Text, n)
			// Evaluate by filtering the reference answers to selected
			// librarians (a CV query to a fleet subset returns exactly the
			// subset's answers, since scores are global).
			keep := map[string]bool{}
			for _, s := range selected {
				keep[s] = true
			}
			hits := 0
			for _, a := range ref.Answers {
				if keep[a.Librarian] {
					hits++
				}
			}
			if len(ref.Answers) > 0 {
				overlap += float64(hits) / float64(len(ref.Answers))
				full++
			}
			// Work saved: postings at selected librarians only.
			var sel float64
			for _, c := range ref.Trace.Calls {
				if keep[c.Librarian] {
					sel += float64(c.LibStats.PostingsDecoded)
				}
			}
			postingsSel += sel
		}
		fmt.Printf("top %-6d %15.1f%% %15.1f%%\n", n,
			100*overlap/full, 100*postingsSel/postingsFull)
	}
	fmt.Println("\nWith topically skewed subcollections, a handful of well-chosen librarians")
	fmt.Println("retain most of the top-20 answers at a fraction of the index work — the")
	fmt.Println("paper's route to making distribution pay for itself.")
	return nil
}

// selectLibrarians ranks librarians for a query by a GlOSS-style goodness
// estimate: Σ_t idf_global(t) · ft(lib,t)/numDocs(lib).
func selectLibrarians(fed *teraphim.Federation, vocabs map[string]map[string]uint32,
	docCounts map[string]int, analyzer *teraphim.Analyzer, query string, n int) []string {
	terms := analyzer.Terms(nil, query)
	weights, err := fed.GlobalWeights(query)
	if err != nil {
		return nil
	}
	type scored struct {
		name  string
		score float64
	}
	var ranking []scored
	for name, vocab := range vocabs {
		var s float64
		seen := map[string]bool{}
		for _, t := range terms {
			if seen[t] {
				continue
			}
			seen[t] = true
			if ft := vocab[t]; ft > 0 {
				idf := weights[t]
				s += idf * math.Log(float64(ft)+1) / math.Log(float64(docCounts[name])+1)
			}
		}
		ranking = append(ranking, scored{name, s})
	}
	sort.Slice(ranking, func(i, j int) bool {
		if ranking[i].score != ranking[j].score {
			return ranking[i].score > ranking[j].score
		}
		return strings.Compare(ranking[i].name, ranking[j].name) < 0
	})
	if n > len(ranking) {
		n = len(ranking)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = ranking[i].name
	}
	return out
}
