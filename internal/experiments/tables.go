package experiments

import (
	"io"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/costmodel"
	"teraphim/internal/trecsynth"
)

// Table1 reproduces the effectiveness table: 11-point average
// recall-precision at 1000 retrieved and mean relevant documents in the top
// 20, for both query sets under MS/CV, CN, and CI with k' ∈ {100, 1000}.
func (r *Runner) Table1(w io.Writer) error {
	line(w, "Table 1: retrieval effectiveness\n")
	line(w, "%-14s %14s %16s\n", "Mode", "11-pt avg (%)", "Rel. in top 20")
	sets := []struct {
		name    string
		queries []trecsynth.Query
	}{
		{"Long queries", r.Corpus.QueriesOf(trecsynth.LongQuery)},
		{"Short queries", r.Corpus.QueriesOf(trecsynth.ShortQuery)},
	}
	for _, set := range sets {
		if len(set.queries) == 0 {
			continue
		}
		line(w, "%s (%d queries)\n", set.name, len(set.queries))
		for _, spec := range StandardSpecs() {
			s, err := r.Effectiveness(spec, set.queries)
			if err != nil {
				return err
			}
			line(w, "%-14s %14.2f %16.1f\n", spec.Label, s.ElevenPtAvg, s.MeanRelevantTop)
		}
	}
	return nil
}

// Table2 reproduces the WAN connectivity table: hops and round-trip times
// per remote site, as configured into the WAN cost model.
func (r *Runner) Table2(w io.Writer) error {
	line(w, "Table 2: network communication costs (WAN configuration)\n")
	line(w, "%-10s %-10s %14s %18s\n", "Location", "Collection", "Network hops", "Avg ping (sec)")
	sites := []struct {
		location string
		lib      string
	}{
		{"Waikato", "FR"},
		{"Canberra", "ZIFF"},
		{"Brisbane", "AP"},
		{"Israel", "WSJ"},
	}
	for _, s := range sites {
		rtt := costmodel.WANSites[s.lib]
		line(w, "%-10s %-10s %14d %18.2f\n", s.location, s.lib, costmodel.WANHops[s.lib], rtt.Seconds())
	}
	return nil
}

// timingRow is one mode's average per-query seconds per configuration.
type timingRow struct {
	label   string
	msOnly  bool
	seconds map[string]float64
}

// paperCorpusDocs is the approximate document count of TREC disk 2, the
// paper's test collection. Per-posting index work in the measured traces is
// replayed at this scale (costmodel.Config.WorkScale) so elapsed-time
// estimates are comparable with the paper's second-range figures.
const paperCorpusDocs = 740000

// timing runs the short query set under every mode and averages the
// cost-model estimate per configuration. When total is false only the rank
// phase is charged (Table 3); when true, rank+fetch (Table 4).
func (r *Runner) timing(total bool) ([]timingRow, error) {
	configs := costmodel.AllConfigs()
	workScale := float64(paperCorpusDocs) / float64(r.pool.Federation().TotalDocs())
	for i := range configs {
		configs[i].WorkScale = workScale
	}
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	opts := core.Options{}
	if total {
		opts = core.Options{Fetch: true, CompressedTransfer: true}
	}
	specs := []RunSpec{
		{Label: "MS", Mode: core.ModeMS},
		{Label: "CN", Mode: core.ModeCN},
		{Label: "CV", Mode: core.ModeCV},
		{Label: "CI", Mode: core.ModeCI, KPrime: 100, Group: 10},
	}
	var rows []timingRow
	for _, spec := range specs {
		_, traces, err := r.Run(spec, queries, topK, opts)
		if err != nil {
			return nil, err
		}
		row := timingRow{label: spec.Label, msOnly: spec.Mode == core.ModeMS, seconds: map[string]float64{}}
		for _, cfg := range configs {
			var sum time.Duration
			for _, tr := range traces {
				b, err := costmodel.Estimate(cfg, tr)
				if err != nil {
					return nil, err
				}
				if total {
					sum += b.Total()
				} else {
					sum += b.Rank
				}
			}
			row.seconds[cfg.Name] = sum.Seconds() / float64(len(traces))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func writeTimingTable(w io.Writer, title string, rows []timingRow) {
	line(w, "%s\n", title)
	line(w, "%-6s %12s %12s %10s %10s\n", "Mode", "mono-disk", "multi-disk", "LAN", "WAN")
	for _, row := range rows {
		if row.msOnly {
			line(w, "%-6s %12.3f %12s %10s %10s\n", row.label, row.seconds["mono-disk"], "-", "-", "-")
			continue
		}
		line(w, "%-6s %12.3f %12.3f %10.3f %10.3f\n", row.label,
			row.seconds["mono-disk"], row.seconds["multi-disk"], row.seconds["LAN"], row.seconds["WAN"])
	}
}

// Table3 reproduces the index-processing response times (steps 1–3),
// k=20, k'=100, short queries.
func (r *Runner) Table3(w io.Writer) error {
	rows, err := r.timing(false)
	if err != nil {
		return err
	}
	writeTimingTable(w, "Table 3: elapsed seconds per query, index processing only (k=20, k'=100)", rows)
	return nil
}

// Table4 reproduces the total response times including document fetch
// (steps 1–4), compressed transfer, k=20, k'=100, short queries.
func (r *Runner) Table4(w io.Writer) error {
	rows, err := r.timing(true)
	if err != nil {
		return err
	}
	writeTimingTable(w, "Table 4: elapsed seconds per query, total including document fetch (k=20, k'=100)", rows)
	return nil
}

// Sizes reproduces the §4 storage discussion: per-librarian index sizes,
// the merged vocabulary a CV receptionist stores, and the full (G=1) versus
// grouped (G=10) central index a CI receptionist stores.
func (r *Runner) Sizes(w io.Writer) error {
	line(w, "Storage requirements\n")
	var rawText, compText, indexBytes uint64
	for _, lib := range r.libs {
		ix := lib.Engine().Index()
		line(w, "  librarian %-6s %7d docs, index %8d B, vocab %8d B, store %8d B (raw %d B)\n",
			lib.Name(), ix.NumDocs(), ix.SizeBytes(), ix.DictSizeBytes(),
			lib.Store().CompressedSize(), lib.Store().RawSize())
		rawText += lib.Store().RawSize()
		compText += lib.Store().CompressedSize()
		indexBytes += ix.SizeBytes()
	}
	line(w, "  total: raw text %d B, compressed text %d B (%.1f%%), librarian indexes %d B (%.1f%% of text)\n",
		rawText, compText, pct(compText, rawText), indexBytes, pct(indexBytes, rawText))

	terms, vocabBytes := r.pool.Federation().VocabularySize()
	line(w, "  CV receptionist: merged vocabulary %d terms, %d B (%.2f%% of text)\n",
		terms, vocabBytes, pct(vocabBytes, rawText))

	g1, err := r.GroupedIndex(1)
	if err != nil {
		return err
	}
	g10, err := r.GroupedIndex(10)
	if err != nil {
		return err
	}
	line(w, "  CI receptionist: full central index (G=1)  %d B (%.1f%% of text)\n",
		g1.SizeBytes(), pct(g1.SizeBytes(), rawText))
	line(w, "  CI receptionist: grouped index    (G=10) %d B (%.1f%% of text, %.0f%% of full)\n",
		g10.SizeBytes(), pct(g10.SizeBytes(), rawText), pct(g10.SizeBytes(), g1.SizeBytes()))
	return nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Split43 reproduces the §4 robustness experiment: CN effectiveness when
// the same corpus is divided into 43 subcollections instead of 4.
func (r *Runner) Split43(w io.Writer) error {
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	base, err := r.Effectiveness(RunSpec{Label: "CN", Mode: core.ModeCN}, queries)
	if err != nil {
		return err
	}
	split, err := r.Corpus.Split(43)
	if err != nil {
		return err
	}
	r43, err := newRunnerFromCorpus(split)
	if err != nil {
		return err
	}
	defer r43.Close()
	s43, err := r43.Effectiveness(RunSpec{Label: "CN", Mode: core.ModeCN}, queries)
	if err != nil {
		return err
	}
	line(w, "43-subcollection split (short queries, CN)\n")
	line(w, "%-22s %14s %16s\n", "Division", "11-pt avg (%)", "Rel. in top 20")
	line(w, "%-22s %14.2f %16.1f\n", "4 subcollections", base.ElevenPtAvg, base.MeanRelevantTop)
	line(w, "%-22s %14.2f %16.1f\n", "43 subcollections", s43.ElevenPtAvg, s43.MeanRelevantTop)
	line(w, "delta: %.2f points (the paper found the impact 'surprisingly small')\n",
		s43.ElevenPtAvg-base.ElevenPtAvg)
	return nil
}

// GroupSizeAblation explores the CI design choice the paper references from
// earlier work: how group size G trades central-index size against
// effectiveness at fixed k'·G candidate volume.
func (r *Runner) GroupSizeAblation(w io.Writer) error {
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	line(w, "Group-size ablation (short queries, CI, k'*G = 1000 candidates)\n")
	line(w, "%-6s %14s %14s %16s\n", "G", "index bytes", "11-pt avg (%)", "Rel. in top 20")
	for _, g := range []int{1, 5, 10, 20, 50} {
		gi, err := r.GroupedIndex(g)
		if err != nil {
			return err
		}
		kPrime := 1000 / g
		s, err := r.Effectiveness(RunSpec{Label: "CI", Mode: core.ModeCI, KPrime: kPrime, Group: g}, queries)
		if err != nil {
			return err
		}
		line(w, "%-6d %14d %14.2f %16.1f\n", g, gi.SizeBytes(), s.ElevenPtAvg, s.MeanRelevantTop)
	}
	return nil
}

// CompressionAblation quantifies the §4 analysis point that compressing
// documents before transmission cuts fetch traffic.
func (r *Runner) CompressionAblation(w io.Writer) error {
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	line(w, "Document-transfer compression ablation (short queries, CN, k=20)\n")
	measure := func(compressed bool) (int, time.Duration, error) {
		_, traces, err := r.Run(RunSpec{Label: "CN", Mode: core.ModeCN}, queries, topK,
			core.Options{Fetch: true, CompressedTransfer: compressed})
		if err != nil {
			return 0, 0, err
		}
		bytes := 0
		var wan time.Duration
		cfg := costmodel.WAN()
		for _, tr := range traces {
			bytes += tr.BytesTransferred(core.PhaseFetch)
			b, err := costmodel.Estimate(cfg, tr)
			if err != nil {
				return 0, 0, err
			}
			wan += b.Fetch
		}
		return bytes / len(traces), wan / time.Duration(len(traces)), nil
	}
	rawBytes, rawWAN, err := measure(false)
	if err != nil {
		return err
	}
	compBytes, compWAN, err := measure(true)
	if err != nil {
		return err
	}
	line(w, "%-22s %16s %20s\n", "Transfer", "fetch B/query", "WAN fetch sec/query")
	line(w, "%-22s %16d %20.3f\n", "plain text", rawBytes, rawWAN.Seconds())
	line(w, "%-22s %16d %20.3f\n", "compressed", compBytes, compWAN.Seconds())
	line(w, "compression saves %.0f%% of fetch traffic\n", 100*(1-float64(compBytes)/float64(rawBytes)))
	return nil
}
