package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"teraphim/internal/bitio"
	"teraphim/internal/codec"
	"teraphim/internal/index"
	"teraphim/internal/search"
	"teraphim/internal/textproc"
)

// freqSorted is a frequency-sorted inverted file in the style of Persin,
// Zobel & Sacks-Davis (JASIS 1996), the organisation the paper's §5 singles
// out as future work: each term's postings are ordered by decreasing
// within-document frequency rather than by document number, so query
// evaluation can stop reading a list as soon as the remaining postings'
// contributions fall below a per-query threshold. Only the FreqSorted
// experiment reads it.
//
// Layout per list: the number of runs (gamma, plus one), then one run per
// distinct f_dt value in decreasing order: the f_dt as a gamma-coded
// downward gap from the previous run's value, the run length (gamma), and
// the run's document numbers (ascending, Golomb d-gap coded).
type freqSorted struct {
	lists   map[string]fsList
	inv     []float64 // 1/W_d, shared with the document-sorted index
	numDocs uint32
	bytes   uint64
}

// fsList is one term's dictionary entry: f_t, the largest f_dt — the first
// run's, kept in the dictionary as Persin et al. require for thresholding —
// and the coded runs.
type fsList struct {
	ft, maxFDT uint32
	data       []byte
}

// buildFreqSorted converts a document-sorted index into its
// frequency-sorted equivalent; the document weights are shared.
func buildFreqSorted(ix *index.Index) (*freqSorted, error) {
	fs := &freqSorted{lists: make(map[string]fsList, ix.NumTerms()), inv: ix.InvDocWeights(), numDocs: ix.NumDocs()}
	var err error
	w := bitio.NewWriter(4096)
	ix.Terms(func(term string, _ uint32) bool {
		var cur *index.TermCursor
		var postings []index.Posting
		if cur, err = ix.Cursor(term); err == nil {
			postings, err = cur.Decode(nil)
		}
		var l fsList
		if err == nil {
			l, err = encodeFreqSorted(w, postings, fs.numDocs)
		}
		if err != nil {
			err = fmt.Errorf("experiments: frequency-sort %q: %w", term, err)
			return false
		}
		fs.lists[term] = l
		fs.bytes += uint64(len(l.data))
		return true
	})
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// encodeFreqSorted codes one document-sorted list as runs of equal f_dt.
func encodeFreqSorted(w *bitio.Writer, postings []index.Posting, numDocs uint32) (fsList, error) {
	w.Reset()
	byFreq := make(map[uint32][]uint32) // ascending documents, as the list is
	for _, p := range postings {
		byFreq[p.FDT] = append(byFreq[p.FDT], p.Doc)
	}
	freqs := make([]uint32, 0, len(byFreq))
	for f := range byFreq {
		freqs = append(freqs, f)
	}
	sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
	var maxF uint32
	if len(freqs) > 0 {
		maxF = freqs[0]
	}
	if err := codec.PutGamma(w, uint64(len(freqs))+1); err != nil {
		return fsList{}, err
	}
	prevF := maxF + 1
	for _, f := range freqs {
		docs := byFreq[f]
		if err := codec.PutGamma(w, uint64(prevF-f)); err != nil {
			return fsList{}, err
		}
		prevF = f
		if err := codec.PutGamma(w, uint64(len(docs))); err != nil {
			return fsList{}, err
		}
		b := codec.GolombParameter(uint64(numDocs), uint64(len(docs)))
		prevDoc := int64(-1)
		for _, d := range docs {
			if err := codec.PutGolomb(w, uint64(int64(d)-prevDoc), b); err != nil {
				return fsList{}, err
			}
			prevDoc = int64(d)
		}
	}
	return fsList{ft: uint32(len(postings)), maxFDT: maxF, data: append([]byte(nil), w.Bytes()...)}, nil
}

// freqCursor walks one list run by run, in decreasing f_dt order; one cursor
// serves every list of a query, keeping its run buffer.
type freqCursor struct {
	r        bitio.Reader
	numDocs  uint32
	runsLeft uint64
	prevF    uint32
	docs     []uint32
	decoded  uint64 // postings decoded since open
}

// open points c at list l of a collection of numDocs documents; false if the
// list cannot be read.
func (c *freqCursor) open(l fsList, numDocs uint32) bool {
	c.r.Reset(l.data)
	nruns, err := codec.Gamma(&c.r)
	if err != nil {
		return false
	}
	c.numDocs, c.runsLeft, c.prevF = numDocs, nruns-1, l.maxFDT+1
	c.docs, c.decoded = c.docs[:0], 0
	return true
}

// nextRun decodes the next run, returning its f_dt and documents; ok is false
// at the end of the list. The documents are valid until the next call.
func (c *freqCursor) nextRun() (fdt uint32, docs []uint32, ok bool) {
	if c.runsLeft == 0 {
		return 0, nil, false
	}
	c.runsLeft--
	gap, err := codec.Gamma(&c.r)
	if err != nil {
		c.runsLeft = 0
		return 0, nil, false
	}
	fdt = c.prevF - uint32(gap)
	c.prevF = fdt
	n, err := codec.Gamma(&c.r)
	if err != nil {
		c.runsLeft = 0
		return 0, nil, false
	}
	b := codec.GolombParameter(uint64(c.numDocs), n)
	c.docs = c.docs[:0]
	prevDoc := int64(-1)
	for i := uint64(0); i < n; i++ {
		g, err := codec.Golomb(&c.r, b)
		if err != nil {
			c.runsLeft = 0
			return 0, nil, false
		}
		prevDoc += int64(g)
		c.docs = append(c.docs, uint32(prevDoc))
	}
	c.decoded += n
	return fdt, c.docs, true
}

// thresholds tunes Persin pruning. Both are fractions of the query's largest
// possible single-posting contribution c_max = max_t w_qt·log(maxFDT_t+1):
//
//   - Insert: a posting below Insert·c_max may update an existing
//     accumulator but no longer creates one (bounding accumulator memory).
//   - Add: a posting below Add·c_max ends its list entirely.
//
// Zero thresholds reproduce exact evaluation. Because contributions are
// log-compressed, the smallest possible contribution of a list is
// log(2)/log(maxFDT+1) of its largest — so useful Add thresholds sit above
// that floor (≈0.3–0.5 on this corpus); the f_dt=1 runs they cut hold most
// of each list's postings, which is where Persin et al.'s factor-of-five
// saving comes from.
type thresholds struct {
	Insert, Add float64
}

// rank evaluates query, analysed by a, with per-query thresholding and
// returns the top k documents. Weights, normalisation and the top-k selector
// with its tie rule are the ranking kernel's (search.CollectionWeight,
// acc·(1/W_d)/W_q, search.TopK under search.LessResult), so with zero
// thresholds the scores are the document-sorted engine's.
func (fs *freqSorted) rank(a *textproc.Analyzer, query string, k int, th thresholds) (search.Ranking, error) {
	var stats search.Stats
	if k <= 0 {
		return search.Ranking{}, fmt.Errorf("experiments: k must be positive, got %d", k)
	}
	type queryTerm struct {
		term     string
		fqt      uint32
		wqt, cap float64 // cap: the largest contribution of the term's list
	}
	var qts []queryTerm
	for _, t := range a.Terms(nil, query) {
		i := slices.IndexFunc(qts, func(q queryTerm) bool { return q.term == t })
		if i < 0 {
			i = len(qts)
			qts = append(qts, queryTerm{term: t})
		}
		qts[i].fqt++
	}
	if len(qts) == 0 {
		return search.Ranking{}, search.ErrEmptyQuery
	}
	stats.TermsLooked = len(qts)
	var wq2 float64
	for i := range qts {
		q := &qts[i]
		if l, ok := fs.lists[q.term]; ok {
			q.wqt = search.CollectionWeight(q.fqt, l.ft, fs.numDocs)
			q.cap = q.wqt * math.Log(float64(l.maxFDT)+1)
			wq2 += q.wqt * q.wqt
		}
	}
	if wq2 == 0 {
		return search.Ranking{Stats: stats}, nil // no query term is indexed
	}
	// Process terms in decreasing contribution cap, as Persin et al.
	// prescribe, so accumulators are created by the most promising lists.
	// The order must be a deterministic total order: with Insert > 0, which
	// list runs first decides which accumulators exist when later lists may
	// only update existing ones. Stable sort plus a term tie-break pins it.
	slices.SortStableFunc(qts, func(a, b queryTerm) int {
		switch {
		case a.cap > b.cap:
			return -1
		case a.cap < b.cap:
			return 1
		}
		return strings.Compare(a.term, b.term)
	})
	cMax := qts[0].cap

	acc := make([]float64, fs.numDocs)
	var touched []uint32 // documents holding an accumulator, first touch first
	var c freqCursor
	for _, q := range qts {
		l, ok := fs.lists[q.term]
		if !ok || !c.open(l, fs.numDocs) {
			continue
		}
		stats.ListsFetched++
		stats.IndexBytesRead += uint64(len(l.data))
		for {
			fdt, docs, ok := c.nextRun()
			if !ok {
				break
			}
			contrib := q.wqt * math.Log(float64(fdt)+1)
			if contrib < th.Add*cMax {
				break // runs only get smaller from here: abandon the list
			}
			insert := contrib >= th.Insert*cMax // below it only live accumulators grow
			for _, d := range docs {
				if d >= fs.numDocs || !insert && acc[d] == 0 {
					continue
				}
				if acc[d] == 0 {
					touched = append(touched, d)
				}
				acc[d] += contrib
			}
		}
		stats.PostingsDecoded += c.decoded
	}
	stats.CandidateDocs = len(touched)

	wq := math.Sqrt(wq2)
	sel := search.NewTopK(k, search.LessResult, nil)
	for _, d := range touched {
		if iw := fs.inv[d]; iw != 0 {
			sel.Offer(search.Result{Doc: d, Score: acc[d] * iw / wq})
		}
	}
	return search.Ranking{Results: sel.Extract(), Stats: stats}, nil
}
