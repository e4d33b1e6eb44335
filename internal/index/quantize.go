package index

import (
	"fmt"
	"math"
)

// MG stores document weights approximately to shrink the weights table —
// with logarithmic bucketing, one byte per document is enough that ranking
// is unaffected in practice (Moffat & Zobel). QuantizeWeights applies the
// same trade to an Index: W_d is replaced by the geometric midpoint of its
// bucket, cutting the table from four bytes per document to one on disk
// (the in-memory representation stays float32 for scoring speed).

// weightBuckets is the number of quantization levels (one byte's worth).
const weightBuckets = 256

// QuantizeWeights returns a copy of the index whose document weights are
// quantized to 256 logarithmic buckets spanning the observed weight range.
// Postings are shared with the original (both are immutable).
func (ix *Index) QuantizeWeights() (*Index, error) {
	if ix.numDocs == 0 {
		return nil, fmt.Errorf("index: nothing to quantize")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, w := range ix.weights {
		v := float64(w)
		if v <= 0 {
			continue // empty documents keep weight zero
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// Copy field by field rather than by struct assignment: the reciprocal
	// weight cache (and its sync.Once) must start fresh, since the quantized
	// copy has different weights.
	out := Index{
		terms:   ix.terms,
		entries: ix.entries,
		arena:   ix.arena,
		skips:   ix.skips,
		lens:    ix.lens,
		numDocs: ix.numDocs,
		numPtrs: ix.numPtrs,
		skipIvl: ix.skipIvl,
	}
	out.weights = make([]float32, len(ix.weights))
	if math.IsInf(lo, 1) {
		// No non-empty documents; nothing to do.
		copy(out.weights, ix.weights)
		return &out, nil
	}
	if hi <= lo {
		hi = lo * (1 + 1e-9)
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	step := (logHi - logLo) / weightBuckets
	for d, w := range ix.weights {
		v := float64(w)
		if v <= 0 {
			continue
		}
		bucket := int((math.Log(v) - logLo) / step)
		if bucket >= weightBuckets {
			bucket = weightBuckets - 1
		}
		if bucket < 0 {
			bucket = 0
		}
		// Geometric midpoint of the bucket.
		mid := math.Exp(logLo + (float64(bucket)+0.5)*step)
		out.weights[d] = float32(mid)
	}
	return &out, nil
}

// WeightsTableBytes reports the on-disk size of the weights table at the
// given precision: 4 bytes per document exact, 1 byte quantized (plus the
// two 8-byte range anchors).
func (ix *Index) WeightsTableBytes(quantized bool) uint64 {
	if quantized {
		return uint64(ix.numDocs) + 16
	}
	return 4 * uint64(ix.numDocs)
}
