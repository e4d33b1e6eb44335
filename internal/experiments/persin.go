package experiments

import (
	"fmt"
	"io"

	"teraphim/internal/eval"
	"teraphim/internal/search"
	"teraphim/internal/trecsynth"
)

// FreqSorted reproduces the direction of Persin, Zobel & Sacks-Davis'
// result, which the paper's §5 marks as future work: with a
// frequency-sorted index and per-query thresholding, "the volume of index
// information processed can be reduced by a factor of five without reducing
// effectiveness". Thresholds sweep from exact evaluation to aggressive
// pruning; effectiveness and decoded postings are reported for the short
// query set against the MS collection.
func (r *Runner) FreqSorted(w io.Writer) error {
	fs, err := buildFreqSorted(r.mono.Engine().Index())
	if err != nil {
		return err
	}
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)

	line(w, "Frequency-sorted index with per-query thresholding (short queries, MS ranking)\n")
	line(w, "%-24s %18s %14s %16s\n", "Thresholds", "postings/query", "11-pt avg (%)", "Rel. in top 20")
	for _, th := range []thresholds{
		{},
		{Insert: 0.30, Add: 0.20},
		{Insert: 0.45, Add: 0.35},
		{Insert: 0.60, Add: 0.50},
	} {
		runs := make(map[string]eval.Run, len(queries))
		var decoded uint64
		for _, q := range queries {
			ranking, err := fs.rank(r.analyzer, q.Text, evalDepth, th)
			results, stats := ranking.Results, ranking.Stats
			if err != nil {
				return err
			}
			decoded += stats.PostingsDecoded
			run := make(eval.Run, len(results))
			for i, res := range results {
				run[i] = r.keys[res.Doc]
			}
			runs[q.ID] = run
		}
		s := eval.Evaluate(r.Corpus.Qrels, runs, evalDepth, topK)
		label := "exact (0/0)"
		if th.Insert > 0 {
			label = fmt.Sprintf("insert %.2f add %.2f", th.Insert, th.Add)
		}
		line(w, "%-24s %18d %14.2f %16.1f\n",
			label, decoded/uint64(len(queries)), s.ElevenPtAvg, s.MeanRelevantTop)
	}
	line(w, "(frequency-sorted index: %d B vs document-sorted %d B)\n",
		fs.bytes, r.mono.Engine().Index().SizeBytes())
	return nil
}

// QuantizedWeights measures the MG approximate-weights trade: quantizing
// W_d to one byte per document shrinks the weights table 4x while leaving
// effectiveness essentially unchanged.
func (r *Runner) QuantizedWeights(w io.Writer) error {
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	exact := r.mono.Engine()
	qix, err := exact.Index().QuantizeWeights()
	if err != nil {
		return err
	}
	quantized := search.NewEngine(qix, r.analyzer)

	line(w, "Approximate document weights (short queries, MS ranking)\n")
	line(w, "%-14s %16s %14s %16s\n", "Weights", "table bytes", "11-pt avg (%)", "Rel. in top 20")
	for _, row := range []struct {
		label  string
		engine *search.Engine
		bytes  uint64
	}{
		{"exact f32", exact, exact.Index().WeightsTableBytes(false)},
		{"1-byte log", quantized, qix.WeightsTableBytes(true)},
	} {
		runs, err := r.msRuns(row.engine, queries)
		if err != nil {
			return err
		}
		s := eval.Evaluate(r.Corpus.Qrels, runs, evalDepth, topK)
		line(w, "%-14s %16d %14.2f %16.1f\n", row.label, row.bytes, s.ElevenPtAvg, s.MeanRelevantTop)
	}
	return nil
}
