package index

import (
	"fmt"
	"sort"
	"sync"

	"teraphim/internal/bitio"
	"teraphim/internal/codec"
)

// FreqSorted is a frequency-sorted inverted file in the style of Persin,
// Zobel & Sacks-Davis (JASIS 1996), the organisation the paper's §5 singles
// out as future work: each term's postings are ordered by decreasing
// within-document frequency rather than by document number, so query
// evaluation can stop reading a list as soon as the remaining postings'
// contributions fall below a per-query threshold — "the volume of index
// information processed can be reduced by a factor of five without
// reducing effectiveness".
//
// Layout per list: a sequence of runs, one per distinct f_dt value in
// decreasing order. Each run stores the f_dt (as a gamma-coded downward gap
// from the previous run's value), the run length (gamma), and the run's
// document numbers (ascending, Golomb d-gap coded).
type FreqSorted struct {
	entries map[string]*fsEntry
	weights []float32
	numDocs uint32
	bytes   uint64
	maxFDT  map[string]uint32

	// invW mirrors Index.InvDocWeights: lazily built 1/W_d table for the
	// pruned evaluator's array-scan normalisation.
	invOnce sync.Once
	invW    []float64
}

type fsEntry struct {
	ft   uint32
	data []byte
}

// BuildFreqSorted converts a document-sorted index into its
// frequency-sorted equivalent. Document weights are shared.
func BuildFreqSorted(ix *Index) (*FreqSorted, error) {
	fs := &FreqSorted{
		entries: make(map[string]*fsEntry, ix.NumTerms()),
		weights: ix.weights,
		numDocs: ix.numDocs,
		maxFDT:  make(map[string]uint32, ix.NumTerms()),
	}
	var walkErr error
	w := bitio.NewWriter(4096)
	ix.Terms(func(term string, ft uint32) bool {
		cur, err := ix.Cursor(term)
		if err != nil {
			walkErr = err
			return false
		}
		postings, err := cur.Decode(nil)
		if err != nil {
			walkErr = err
			return false
		}
		entry, maxF, err := encodeFreqSorted(w, postings, ix.numDocs)
		if err != nil {
			walkErr = fmt.Errorf("index: term %q: %w", term, err)
			return false
		}
		fs.entries[term] = entry
		fs.maxFDT[term] = maxF
		fs.bytes += uint64(len(entry.data))
		return true
	})
	if walkErr != nil {
		return nil, walkErr
	}
	return fs, nil
}

func encodeFreqSorted(w *bitio.Writer, postings []Posting, numDocs uint32) (*fsEntry, uint32, error) {
	w.Reset()
	// Group postings by f_dt.
	byFreq := make(map[uint32][]uint32)
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
	// Number of runs first.
	if err := codec.PutGamma(w, uint64(len(freqs))+1); err != nil {
		return nil, 0, err
	}
	prevF := maxF + 1
	for _, f := range freqs {
		docs := byFreq[f]
		sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
		// f_dt as downward gap from the previous run (≥1).
		if err := codec.PutGamma(w, uint64(prevF-f)); err != nil {
			return nil, 0, err
		}
		prevF = f
		if err := codec.PutGamma(w, uint64(len(docs))); err != nil {
			return nil, 0, err
		}
		b := codec.GolombParameter(uint64(numDocs), uint64(len(docs)))
		prevDoc := int64(-1)
		for _, d := range docs {
			if err := codec.PutGolomb(w, uint64(int64(d)-prevDoc), b); err != nil {
				return nil, 0, err
			}
			prevDoc = int64(d)
		}
	}
	return &fsEntry{ft: uint32(len(postings)), data: append([]byte(nil), w.Bytes()...)}, maxF, nil
}

// NumDocs returns the collection size.
func (fs *FreqSorted) NumDocs() uint32 { return fs.numDocs }

// SizeBytes returns total compressed postings bytes.
func (fs *FreqSorted) SizeBytes() uint64 { return fs.bytes }

// TermFreq returns f_t for term (0 when absent).
func (fs *FreqSorted) TermFreq(term string) uint32 {
	if e, ok := fs.entries[term]; ok {
		return e.ft
	}
	return 0
}

// MaxFDT returns the largest within-document frequency of term — the first
// run's value, available without decoding (stored in the dictionary, as
// Persin et al. require for threshold computation).
func (fs *FreqSorted) MaxFDT(term string) uint32 { return fs.maxFDT[term] }

// ListBytes reports the exact compressed size in bytes of one term's
// frequency-sorted list (0 when the term is absent), mirroring
// TermCursor.ListBytes so the pruned evaluator feeds Stats.IndexBytesRead
// the same way the exact kernel does.
func (fs *FreqSorted) ListBytes(term string) uint64 {
	if e, ok := fs.entries[term]; ok {
		return uint64(len(e.data))
	}
	return 0
}

// DocWeight returns W_d.
func (fs *FreqSorted) DocWeight(doc uint32) (float64, error) {
	if doc >= fs.numDocs {
		return 0, fmt.Errorf("index: doc %d outside collection of %d", doc, fs.numDocs)
	}
	return float64(fs.weights[doc]), nil
}

// InvDocWeights returns the cached reciprocal document-weight table:
// entry d is 1/W_d, or 0 when W_d is 0. The slice is shared and must not be
// modified.
func (fs *FreqSorted) InvDocWeights() []float64 {
	fs.invOnce.Do(func() {
		inv := make([]float64, len(fs.weights))
		for d, w := range fs.weights {
			if w != 0 {
				inv[d] = 1 / float64(w)
			}
		}
		fs.invW = inv
	})
	return fs.invW
}

// FreqCursor iterates one frequency-sorted list run by run, in decreasing
// f_dt order. Cursors are reusable across terms via ResetCursor, retaining
// their run buffer, so the pruned evaluator walks every list of a query
// with one pooled cursor.
type FreqCursor struct {
	r        bitio.Reader
	numDocs  uint32
	runsLeft uint64
	prevF    uint32

	// Current run state.
	fdt     uint32
	docs    []uint32
	decoded uint64
}

// Cursor opens a frequency-sorted cursor for term.
func (fs *FreqSorted) Cursor(term string) (*FreqCursor, error) {
	c := &FreqCursor{}
	if err := fs.ResetCursor(c, term); err != nil {
		return nil, err
	}
	return c, nil
}

// ResetCursor re-initialises c over term's list, retaining its run buffer.
func (fs *FreqSorted) ResetCursor(c *FreqCursor, term string) error {
	e, ok := fs.entries[term]
	if !ok {
		return fmt.Errorf("index: %w: %q", ErrTermNotFound, term)
	}
	c.r.Reset(e.data)
	nruns, err := codec.Gamma(&c.r)
	if err != nil {
		return err
	}
	c.numDocs = fs.numDocs
	c.runsLeft = nruns - 1
	c.prevF = fs.maxFDT[term] + 1
	c.fdt = 0
	c.docs = c.docs[:0]
	c.decoded = 0
	return nil
}

// NextRun decodes the next run, returning its f_dt and documents; ok is
// false at the end of the list. The returned slice is valid until the next
// call.
func (c *FreqCursor) NextRun() (fdt uint32, docs []uint32, ok bool) {
	if c.runsLeft == 0 {
		return 0, nil, false
	}
	c.runsLeft--
	gap, err := codec.Gamma(&c.r)
	if err != nil {
		c.runsLeft = 0
		return 0, nil, false
	}
	c.fdt = c.prevF - uint32(gap)
	c.prevF = c.fdt
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
	return c.fdt, c.docs, true
}

// Decoded reports postings decoded so far.
func (c *FreqCursor) Decoded() uint64 { return c.decoded }
