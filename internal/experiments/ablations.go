package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"teraphim/internal/costmodel"
	"teraphim/internal/eval"
	"teraphim/internal/index"
	"teraphim/internal/search"
	"teraphim/internal/trecsynth"
)

// Skipping reproduces the §4 analysis estimate that with the self-indexing
// "skipping" mechanism the CI librarians' CPU cost drops by a factor of two
// or more when k' is small. Candidate scoring against indexes built with
// and without skip structures is compared on two query mixes — the short
// query set (mid-frequency terms) and queries over the collection's most
// common terms, whose long inverted lists are where skipping pays — across
// k' ∈ {10, 100}.
func (r *Runner) Skipping(w io.Writer) error {
	withSkips, err := buildGlobalIndex(r, index.DefaultSkipInterval)
	if err != nil {
		return err
	}
	noSkips, err := buildGlobalIndex(r, 0)
	if err != nil {
		return err
	}
	gi, err := r.GroupedIndex(10)
	if err != nil {
		return err
	}
	cpu := costmodel.Era1995CPU()
	scratch := search.NewScratch()

	shortQueries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	headQuery := headTermQuery(withSkips, 8)
	mixes := []struct {
		label   string
		queries []string
	}{
		{"short queries", queryTexts(shortQueries)},
		{"head terms", []string{headQuery}},
	}

	line(w, "Skipping ablation (CI candidate scoring, G=10)\n")
	line(w, "%-15s %6s %18s %18s %8s\n", "Workload", "k'", "decoded w/ skips", "decoded w/o", "speedup")
	for _, mix := range mixes {
		for _, kPrime := range []int{10, 100} {
			var withD, withoutD uint64
			queriesScored := 0
			for _, qText := range mix.queries {
				groups, _, err := gi.RankGroups(scratch, qText, kPrime)
				if err != nil {
					return err
				}
				docs := gi.Expand(groups)
				if len(docs) == 0 {
					continue
				}
				queriesScored++
				_, s1, err := search.ScoreParts(scratch, []search.Part{{Index: withSkips}}, r.analyzer, qText, docs, nil, 0)
				if err != nil {
					return fmt.Errorf("experiments: skipping ablation: %w", err)
				}
				_, s2, err := search.ScoreParts(scratch, []search.Part{{Index: noSkips}}, r.analyzer, qText, docs, nil, 0)
				if err != nil {
					return fmt.Errorf("experiments: skipping ablation: %w", err)
				}
				withD += s1.PostingsDecoded
				withoutD += s2.PostingsDecoded
			}
			if queriesScored == 0 || withD == 0 {
				continue
			}
			n := uint64(queriesScored)
			line(w, "%-15s %6d %18d %18d %7.1fx\n", mix.label, kPrime,
				withD/n, withoutD/n, float64(withoutD)/float64(withD))
		}
	}
	_ = cpu
	line(w, "(librarian CPU scales with decoded postings at %v per posting)\n", cpu.PerPosting)
	return nil
}

// headTermQuery builds a query from the n most frequent indexed terms — the
// long-list regime where skip structures matter most.
func headTermQuery(ix *index.Index, n int) string {
	type tf struct {
		term string
		ft   uint32
	}
	var all []tf
	ix.Terms(func(term string, ft uint32) bool {
		all = append(all, tf{term, ft})
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].ft > all[j].ft })
	if n > len(all) {
		n = len(all)
	}
	terms := make([]string, n)
	for i := 0; i < n; i++ {
		terms[i] = all[i].term
	}
	return strings.Join(terms, " ")
}

func queryTexts(queries []trecsynth.Query) []string {
	out := make([]string, len(queries))
	for i, q := range queries {
		out[i] = q.Text
	}
	return out
}

func buildGlobalIndex(r *Runner, skipInterval uint32) (*index.Index, error) {
	b := index.NewBuilder(index.WithSkipInterval(skipInterval))
	for _, terms := range r.docTerms {
		b.Add(terms)
	}
	return b.Build()
}

// Threshold reproduces the §5 preliminary finding: pruning index postings
// by within-document frequency shrinks the index but, applied bluntly,
// costs effectiveness. Postings with f_dt below the threshold are dropped
// from lists longer than minList.
func (r *Runner) Threshold(w io.Writer) error {
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)

	line(w, "Index thresholding ablation (short queries, MS ranking)\n")
	line(w, "%-22s %14s %14s %16s\n", "Index", "size bytes", "11-pt avg (%)", "Rel. in top 20")

	baseRuns, err := r.msRuns(r.msIx, queries)
	if err != nil {
		return err
	}
	base := eval.Evaluate(r.Corpus.Qrels, baseRuns, evalDepth, topK)
	baseSize := r.msIx.SizeBytes()
	line(w, "%-22s %14d %14.2f %16.1f\n", "full index", baseSize, base.ElevenPtAvg, base.MeanRelevantTop)

	for _, minFDT := range []uint32{2, 3} {
		pruned, err := r.prunedIndex(minFDT, 50)
		if err != nil {
			return err
		}
		runs, err := r.msRuns(pruned, queries)
		if err != nil {
			return err
		}
		s := eval.Evaluate(r.Corpus.Qrels, runs, evalDepth, topK)
		size := pruned.SizeBytes()
		line(w, "drop f_dt<%-13d %14d %14.2f %16.1f\n", minFDT, size, s.ElevenPtAvg, s.MeanRelevantTop)
	}
	return nil
}

// prunedIndex rebuilds the MS index keeping, for terms whose document
// frequency exceeds minList, only postings with f_dt >= minFDT.
func (r *Runner) prunedIndex(minFDT uint32, minList int) (*index.Index, error) {
	// Pass 1: document frequencies.
	df := make(map[string]int, 4096)
	for _, terms := range r.docTerms {
		seen := map[string]bool{}
		for _, t := range terms {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	// Pass 2: rebuild with low-contribution postings dropped.
	b := index.NewBuilder()
	for _, terms := range r.docTerms {
		counts := make(map[string]uint32, len(terms))
		for _, t := range terms {
			counts[t]++
		}
		var kept []string
		for t, f := range counts {
			if df[t] > minList && f < minFDT {
				continue
			}
			for i := uint32(0); i < f; i++ {
				kept = append(kept, t)
			}
		}
		b.Add(kept)
	}
	return b.Build()
}

// msRuns ranks the query set on a bare MS-shaped index, translating its
// global doc numbers into qrels keys via the runner's key table.
func (r *Runner) msRuns(ix *index.Index, queries []trecsynth.Query) (map[string]eval.Run, error) {
	runs := make(map[string]eval.Run, len(queries))
	scratch := search.NewScratch()
	for _, q := range queries {
		results, _, err := search.RankParts(nil, scratch, []search.Part{{Index: ix}}, r.analyzer, q.Text, evalDepth, nil)
		if err != nil {
			return nil, err
		}
		run := make(eval.Run, len(results))
		for i, res := range results {
			run[i] = r.keys[res.Doc]
		}
		runs[q.ID] = run
	}
	return runs, nil
}
