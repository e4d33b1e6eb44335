// Package trecsynth generates a deterministic synthetic substitute for the
// TREC disk-2 test data used in the paper: a corpus split into named
// subcollections (AP, FR, WSJ, ZIFF analogues), long and short query sets,
// and relevance judgements.
//
// Real TREC data is licensed and cannot ship with this repository. The
// generator preserves the statistical properties the paper's experiments
// depend on:
//
//   - a Zipfian vocabulary, so inverted-list lengths and compression rates
//     are realistic;
//   - a topic model with per-subcollection topical skew, so local f_t
//     statistics differ from global ones (the CN-vs-CV distinction);
//   - relevance derived from the generating topic mixture, so ranked
//     retrieval effectiveness is measurable without human judgements;
//   - two query sets mirroring TREC topics 51–200 (long, ≈90 terms) and
//     202–250 (short, ≈10 terms).
package trecsynth

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"teraphim/internal/eval"
	"teraphim/internal/store"
)

// QueryKind distinguishes the two TREC-style query sets.
type QueryKind int

// Query set kinds.
const (
	ShortQuery QueryKind = iota + 1
	LongQuery
)

func (k QueryKind) String() string {
	switch k {
	case ShortQuery:
		return "short"
	case LongQuery:
		return "long"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// Query is one synthetic information need.
type Query struct {
	ID    string
	Kind  QueryKind
	Topic int
	Text  string
}

// Subcollection is one librarian's document set.
type Subcollection struct {
	Name string
	Docs []store.Document
}

// Corpus is a complete generated test collection.
type Corpus struct {
	Subcollections []Subcollection
	Queries        []Query
	Qrels          *eval.Qrels
}

// SubSpec describes one subcollection to generate.
type SubSpec struct {
	Name    string
	NumDocs int
}

// Config controls generation. The zero value is not valid; use
// DefaultConfig and override fields as needed.
type Config struct {
	Seed      int64
	VocabSize int
	NumTopics int
	Subs      []SubSpec

	MeanDocLen int // average tokens per document

	NumShortQueries int
	NumLongQueries  int
	ShortQueryLen   int
	LongQueryLen    int

	// TopicalDocProb is the probability a document is strongly topical;
	// strongly topical documents about a query's topic are the relevant set.
	TopicalDocProb float64
	// HomeBias is the probability a document's topic is drawn from the
	// topics "homed" at its subcollection, producing the cross-collection
	// statistics skew that separates CN from CV.
	HomeBias float64
}

// DefaultConfig mirrors the paper's setting at laptop scale: four
// subcollections of roughly uniform size ("AP", "FR", "WSJ", "ZIFF"), two
// query sets of 150 long / 49 short queries scaled down to keep experiment
// runtime sensible.
func DefaultConfig() Config {
	return Config{
		Seed:      1998,
		VocabSize: 12000,
		NumTopics: 60,
		Subs: []SubSpec{
			{Name: "AP", NumDocs: 10400},
			{Name: "FR", NumDocs: 6800},
			{Name: "WSJ", NumDocs: 9600},
			{Name: "ZIFF", NumDocs: 8000},
		},
		MeanDocLen:      130,
		NumShortQueries: 49,
		NumLongQueries:  50,
		ShortQueryLen:   10,
		LongQueryLen:    90,
		TopicalDocProb:  0.18,
		HomeBias:        0.65,
	}
}

// SkewedConfig describes a fleet of numSubs small, topically focused
// subcollections ("S00", "S01", ...) of docsPerSub documents each — the
// many-subcollections regime collection selection targets. Each
// subcollection homes two topics and HomeBias is turned up high, so a
// query's answers concentrate in a few subcollections and a top-R
// receptionist can skip the rest without losing much. Everything else
// follows DefaultConfig, scaled down to keep sweeps over dozens of
// subcollections fast.
func SkewedConfig(numSubs, docsPerSub int) Config {
	cfg := DefaultConfig()
	cfg.Subs = make([]SubSpec, numSubs)
	for i := range cfg.Subs {
		cfg.Subs[i] = SubSpec{Name: fmt.Sprintf("S%02d", i), NumDocs: docsPerSub}
	}
	cfg.NumTopics = 2 * numSubs
	cfg.HomeBias = 0.92
	cfg.VocabSize = 6000
	cfg.NumShortQueries = 32
	cfg.NumLongQueries = 8
	return cfg
}

// topicTermCount is the size of each topic's term set. Large and
// flat-weighted: a document about the topic covers only a fraction of the
// set, so query/document term overlap is partial — the property that makes
// ranking genuinely hard, as with real TREC topics.
const topicTermCount = 96

// topicPoolSize is the size of the shared mid-frequency term pool from
// which every topic draws its terms. Distinct topics therefore share
// vocabulary, creating the topical confusion (near-miss documents) that
// keeps precision away from 1.0.
const topicPoolSize = 2000

// topic is a latent information need with its own term distribution.
type topic struct {
	terms   []int     // vocabulary indexes
	weights []float64 // cumulative sampling weights over terms
	home    int       // index of the subcollection where the topic is common
}

// Generate builds a corpus from config. Generation is fully deterministic
// for a given Config.
func Generate(cfg Config) (*Corpus, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := makeVocab(cfg.VocabSize)
	zipf := rand.NewZipf(rng, 1.15, 2.0, uint64(cfg.VocabSize-1))
	topics := makeTopics(rng, cfg)

	c := &Corpus{Qrels: eval.NewQrels()}

	// Queries are generated before documents so that relevance judgements
	// can be recorded while documents are produced.
	queries := makeQueries(rng, cfg, topics, vocab)
	c.Queries = queries
	queriesByTopic := make(map[int][]int, len(queries)) // topic -> query indexes
	for qi, q := range queries {
		queriesByTopic[q.Topic] = append(queriesByTopic[q.Topic], qi)
	}

	for si, spec := range cfg.Subs {
		sub := Subcollection{Name: spec.Name, Docs: make([]store.Document, 0, spec.NumDocs)}
		homeTopics := topicsHomedAt(topics, si)
		for d := 0; d < spec.NumDocs; d++ {
			doc, topicID, lambda := generateDoc(rng, cfg, topics, homeTopics, vocab, zipf)
			doc.Title = fmt.Sprintf("%s-%d (topic %d)", spec.Name, d, topicID)
			doc.ID = uint32(d)
			sub.Docs = append(sub.Docs, doc)
			if lambda >= relevanceLambda {
				key := DocKey(spec.Name, uint32(d))
				for _, qi := range queriesByTopic[topicID] {
					c.Qrels.Judge(queries[qi].ID, key)
				}
			}
		}
		c.Subcollections = append(c.Subcollections, sub)
	}
	return c, nil
}

// relevanceLambda is the topical-mixture threshold above which a document is
// judged relevant to queries about its topic. The threshold is deliberately
// low: documents just above it are only weakly about their topic, so — as
// with real TREC judgements — part of the relevant set is hard to retrieve
// and ranking depth matters.
const relevanceLambda = 0.22

func validate(cfg Config) error {
	switch {
	case cfg.VocabSize < topicTermCount*2:
		return fmt.Errorf("trecsynth: vocab size %d too small", cfg.VocabSize)
	case cfg.NumTopics < 1:
		return fmt.Errorf("trecsynth: need at least one topic")
	case len(cfg.Subs) == 0:
		return fmt.Errorf("trecsynth: need at least one subcollection")
	case cfg.MeanDocLen < 10:
		return fmt.Errorf("trecsynth: mean doc length %d too small", cfg.MeanDocLen)
	}
	for _, s := range cfg.Subs {
		if s.NumDocs < 1 {
			return fmt.Errorf("trecsynth: subcollection %q has no documents", s.Name)
		}
	}
	return nil
}

// DocKey forms the global document identity used in qrels and run files.
func DocKey(subcollection string, docID uint32) string {
	return fmt.Sprintf("%s:%d", subcollection, docID)
}

// AllDocs returns every document in subcollection order together with the
// global key of each — the layout a mono-server (MS) build uses.
func (c *Corpus) AllDocs() (docs []store.Document, keys []string) {
	for _, sub := range c.Subcollections {
		for _, d := range sub.Docs {
			docs = append(docs, d)
			keys = append(keys, DocKey(sub.Name, d.ID))
		}
	}
	return docs, keys
}

// QueriesOf returns the queries of one kind.
func (c *Corpus) QueriesOf(kind QueryKind) []Query {
	var out []Query
	for _, q := range c.Queries {
		if q.Kind == kind {
			out = append(out, q)
		}
	}
	return out
}

// Split repartitions the corpus into n subcollections of near-equal size,
// preserving document text and relevance (keys are rewritten). It reproduces
// the paper's 43-subcollection robustness experiment.
func (c *Corpus) Split(n int) (*Corpus, error) {
	docs, keys := c.AllDocs()
	if n < 1 || n > len(docs) {
		return nil, fmt.Errorf("trecsynth: cannot split %d docs into %d parts", len(docs), n)
	}
	out := &Corpus{Queries: c.Queries, Qrels: eval.NewQrels()}
	keyMap := make(map[string]string, len(docs))
	per := (len(docs) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if hi > len(docs) {
			hi = len(docs)
		}
		if lo >= hi {
			break
		}
		name := fmt.Sprintf("S%02d", i)
		sub := Subcollection{Name: name}
		for j, d := range docs[lo:hi] {
			nd := d
			nd.ID = uint32(j)
			sub.Docs = append(sub.Docs, nd)
			keyMap[keys[lo+j]] = DocKey(name, uint32(j))
		}
		out.Subcollections = append(out.Subcollections, sub)
	}
	// Rewrite qrels under the new keys.
	for _, qid := range c.Qrels.Queries() {
		for oldKey, newKey := range keyMap {
			if c.Qrels.IsRelevant(qid, oldKey) {
				out.Qrels.Judge(qid, newKey)
			}
		}
	}
	return out, nil
}

// makeVocab builds pronounceable pseudo-words, index 0 most frequent. Words
// are generated from syllables and suffixed with their index so that every
// surface form is unique and survives analysis unchanged.
func makeVocab(n int) []string {
	syllables := []string{
		"ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
		"na", "pe", "qi", "ro", "su", "ta", "ve", "wi", "xo", "zu",
	}
	out := make([]string, n)
	for i := range out {
		var sb strings.Builder
		v := i
		for j := 0; j < 3; j++ {
			sb.WriteString(syllables[v%len(syllables)])
			v /= len(syllables)
		}
		fmt.Fprintf(&sb, "%d", i)
		out[i] = sb.String()
	}
	return out
}

// makeTopics assigns each topic a home subcollection (round-robin) and a
// Zipf-weighted distribution over a random mid-frequency term subset.
func makeTopics(rng *rand.Rand, cfg Config) []topic {
	// All topics draw from one shared pool of mid-frequency terms, so
	// different topics overlap and documents about one topic are partial
	// matches for queries about another.
	poolSize := topicPoolSize
	if poolSize > cfg.VocabSize-100 {
		poolSize = cfg.VocabSize - 100
	}
	topics := make([]topic, cfg.NumTopics)
	for t := range topics {
		terms := make([]int, topicTermCount)
		seen := map[int]bool{}
		for i := range terms {
			for {
				idx := 100 + rng.Intn(poolSize)
				if !seen[idx] {
					seen[idx] = true
					terms[i] = idx
					break
				}
			}
		}
		weights := make([]float64, len(terms))
		var cum float64
		for i := range weights {
			// Flat-ish weighting (inverse square root) so no handful of
			// terms gives the topic away.
			cum += 1 / math.Sqrt(float64(i+1))
			weights[i] = cum
		}
		topics[t] = topic{terms: terms, weights: weights, home: t % len(cfg.Subs)}
	}
	return topics
}

func topicsHomedAt(topics []topic, sub int) []int {
	var out []int
	for t := range topics {
		if topics[t].home == sub {
			out = append(out, t)
		}
	}
	return out
}

// queryFacetSize is the prefix of a topic's term set that queries draw
// from. Documents may express the topic through the remaining terms
// instead — such documents are relevant yet share little vocabulary with
// the query, bounding achievable recall exactly as hard TREC topics do.
const queryFacetSize = topicTermCount / 2

// sampleTerm draws a term index from the topic's full distribution.
func (t *topic) sampleTerm(rng *rand.Rand) int {
	return t.sampleTermRange(rng, 0, len(t.terms))
}

// sampleTermRange draws a term from the sub-range [lo, hi) of the topic's
// term set, respecting the relative weights within the range.
func (t *topic) sampleTermRange(rng *rand.Rand, lo, hi int) int {
	base := 0.0
	if lo > 0 {
		base = t.weights[lo-1]
	}
	x := base + rng.Float64()*(t.weights[hi-1]-base)
	i, j := lo, hi-1
	for i < j {
		mid := (i + j) / 2
		if t.weights[mid] < x {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return t.terms[i]
}

// generateDoc produces one document: a mixture of topical and background
// terms rendered as sentence-structured text.
func generateDoc(rng *rand.Rand, cfg Config, topics []topic, homeTopics []int, vocab []string, zipf *rand.Zipf) (store.Document, int, float64) {
	// Pick the document's topic, biased toward the subcollection's home
	// topics.
	var topicID int
	if len(homeTopics) > 0 && rng.Float64() < cfg.HomeBias {
		topicID = homeTopics[rng.Intn(len(homeTopics))]
	} else {
		topicID = rng.Intn(len(topics))
	}
	top := &topics[topicID]

	// Topical intensity lambda: a small fraction of documents are about
	// their topic, with intensity skewed toward the weak end (squared
	// uniform) so most relevant documents are hard to retrieve; the rest
	// are mostly background with a trace of topical vocabulary.
	var lambda float64
	if rng.Float64() < cfg.TopicalDocProb {
		u := rng.Float64()
		lambda = relevanceLambda + u*u*u*(0.85-relevanceLambda)
	} else {
		// Background documents still carry a trace of their topic's
		// vocabulary — they are the near-miss distractors — but stay
		// strictly below the relevance threshold.
		lambda = rng.Float64() * 0.9 * relevanceLambda
	}

	// Half the topical documents express the topic mainly through the
	// non-query facet of its vocabulary: relevant, but hard to retrieve.
	facetLo, facetHi := 0, len(top.terms)
	if lambda >= relevanceLambda && rng.Float64() < 0.5 {
		facetLo = queryFacetSize
	}

	length := cfg.MeanDocLen/2 + rng.Intn(cfg.MeanDocLen)
	var sb strings.Builder
	sb.Grow(length * 8)
	for i := 0; i < length; i++ {
		var term string
		if rng.Float64() < lambda {
			term = vocab[top.sampleTermRange(rng, facetLo, facetHi)]
		} else {
			term = vocab[int(zipf.Uint64())]
		}
		if i > 0 {
			switch {
			case i%13 == 0:
				sb.WriteString(". ")
			case i%53 == 0:
				sb.WriteString(".\n\n")
			default:
				sb.WriteString(" ")
			}
		}
		sb.WriteString(term)
	}
	sb.WriteString(".")
	return store.Document{Text: sb.String()}, topicID, lambda
}

// makeQueries builds the long and short query sets. Query q about topic t
// samples terms from t's distribution (plus background noise for long
// queries, mimicking verbose TREC topic statements).
func makeQueries(rng *rand.Rand, cfg Config, topics []topic, vocab []string) []Query {
	var out []Query
	build := func(id string, kind QueryKind, topicID, length int, noise float64) Query {
		top := &topics[topicID]
		terms := make([]string, 0, length)
		for len(terms) < length {
			if rng.Float64() < noise {
				terms = append(terms, vocab[100+rng.Intn(cfg.VocabSize-100)])
			} else {
				// Queries verbalise only the query facet of the topic.
				terms = append(terms, vocab[top.sampleTermRange(rng, 0, queryFacetSize)])
			}
		}
		return Query{ID: id, Kind: kind, Topic: topicID, Text: strings.Join(terms, " ")}
	}
	for i := 0; i < cfg.NumLongQueries; i++ {
		topicID := i % len(topics)
		out = append(out, build(fmt.Sprintf("L%03d", 51+i), LongQuery, topicID, cfg.LongQueryLen, 0.35))
	}
	for i := 0; i < cfg.NumShortQueries; i++ {
		topicID := (i * 7) % len(topics)
		out = append(out, build(fmt.Sprintf("S%03d", 202+i), ShortQuery, topicID, cfg.ShortQueryLen, 0.1))
	}
	return out
}
