package codec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"teraphim/internal/bitio"
)

// Posting is one (document, within-document frequency) pair in an inverted
// list. Doc identifiers are local to a collection and start at 0.
type Posting struct {
	Doc uint32
	FDT uint32 // f_{d,t}: occurrences of the term in the document
}

// AppendList appends to w the MG code of postings, one list of a
// collection of numDocs documents: documents strictly ascending below
// numDocs, each with a non-zero frequency. Document gaps are Golomb-coded
// under the divisor the list's density gives and frequencies gamma-coded,
// and the gaps run on across the list, so a decoder can resume at any
// posting from the document before it. skips receives the list's n =
// len(skips)/2 sync points, one before each block of ivl postings after the
// first: skips[k] is the last document before block k+1, and skips[n+k] the
// bit, counted from the list's first, where that block starts.
// A posting whose codes fit 56 bits is one write. Its quotient x/b is hi(x·m)
// for Lemire's m = ⌊(2⁶⁴−1)/b⌋+1, exact for x, b < 2³²; m is 0 when b = 1.
func AppendList(w *bitio.Writer, postings []Posting, numDocs uint32, ivl int, skips []uint32) error {
	g := NewGolombCode(GolombParameter(uint64(numDocs), uint64(len(postings))))
	m := ^uint64(0)/g.b + 1
	start, n := w.BitLen(), len(skips)/2
	prev, k, next := int64(-1), 0, ivl // next: the posting sync point k precedes
	for i, p := range postings {
		if i == next && k < n {
			skips[k], skips[n+k] = uint32(prev), uint32(w.BitLen()-start)
			k, next = k+1, next+ivl
		}
		if int64(p.Doc) <= prev || p.Doc >= numDocs || p.FDT == 0 {
			return fmt.Errorf("codec: posting %d (%d, %d) not ascending inside %d documents", i, p.Doc, p.FDT, numDocs)
		}
		x, f := uint64(int64(p.Doc)-prev)-1, uint64(p.FDT)
		prev = int64(p.Doc)
		q, _ := bits.Mul64(x, m)
		if m == 0 {
			q = x
		}
		rem, rn := x-q*g.b, g.short // the remainder's truncated-binary code
		if rem >= g.thresh {
			rem, rn = rem+g.thresh, rn+1
		}
		glen := uint(bits.Len64(f)) - 1 // gamma: glen ones, a zero, f's glen low bits
		if width := uint(q) + rn + 2*glen + 2; width <= 56 {
			w.WriteBits(((1<<q-1)<<(rn+1)|rem)<<(2*glen+1)|(1<<glen-1)<<(glen+1)|f&(1<<glen-1), width)
			continue
		}
		g.put(w, x+1)
		PutGamma(w, f)
	}
	return nil
}

// DecodeList decodes into dst the len(dst) postings that AppendList coded at
// the start of data for a collection of numDocs documents, and returns the
// bits their code takes. It is the checked decoder of a list read from a
// file or a peer: it refuses a document at or past numDocs, and so a gap
// wider than 32 bits, and a frequency wider than 32 bits; and it refuses a
// list whose sync points are not the ones skips holds, ivl postings apart in
// AppendList's layout: 2·⌊(len(dst)−1)/ivl⌋ values, or none.
func DecodeList(dst []Posting, data []byte, numDocs uint32, ivl int, skips []uint32) (int, error) {
	n := len(skips) / 2
	var r bitio.Reader
	r.Reset(data)
	g := NewGolombCode(GolombParameter(uint64(numDocs), uint64(len(dst))))
	prev := int64(-1)
	for k := 0; ; k++ {
		blk := dst[k*ivl:]
		if k < n {
			blk = blk[:ivl]
		}
		var err error
		if prev, err = g.DecodePostingsInto(blk, &r, prev); err != nil {
			return 0, err
		}
		if prev >= int64(numDocs) {
			return 0, fmt.Errorf("codec: document %d outside %d", prev, numDocs)
		}
		if k == n {
			return r.BitPos(), nil
		}
		if skips[k] != uint32(prev) || skips[n+k] != uint32(r.BitPos()) {
			return 0, fmt.Errorf("codec: sync point %d is (%d, bit %d), the list's (%d, bit %d)", k, skips[k], skips[n+k], prev, r.BitPos())
		}
	}
}

// DecodePostingsInto is the allocation-free block decoder under the
// cursors: it decodes exactly len(dst) postings from r into dst, given the
// document id preceding the block (prevDoc, -1 at the start of a list — gap
// coding is continuous across blocks, so a decoder that seeks to a skip point
// resumes with the skip entry's last document). It returns the last document
// id decoded so the caller can chain blocks. No bounds validation is
// performed beyond the bitstream itself and the frequency's width; callers
// wanting the checked path use DecodeList.
//
// Postings are taken from the reader's 64-bit window, as many as fit per
// refill, and one comparison of a posting's length against the valid bits
// left stands in for every per-field end-of-input check. A posting that does
// not fit a whole window — a very long code, or the end of the input — goes
// through the single-value readers, which report the error. Only there can a
// frequency be wider than 32 bits — a window holds a gamma code of at most 31
// data bits — and it is refused rather than truncated.
func (g *GolombCode) DecodePostingsInto(dst []Posting, r *bitio.Reader, prevDoc int64) (int64, error) {
	doc := prevDoc
	long := g.short + 1
	for i := 0; i < len(dst); {
		w, avail := r.Peek()
		left := avail
		// Shift counts are masked to 63 so each compiles to one instruction,
		// and a run of ones is measured by the bit index h of the zero that
		// ends it (run length 63-h), which is what the hardware returns.
		// Where a mask changes a count, the run is 63 ones or longer, the
		// posting cannot fit a window, and the length test rejects it.
		for i < len(dst) {
			h := uint(bits.Len64(^w)) - 1
			q := 63 - h // unary quotient
			x := w << (-h & 63)
			// Both remainder lengths are worked out and one is selected, so
			// that the compiler emits conditional moves: on real lists the
			// length is a coin toss, and a mispredicted branch costs more
			// than the rest of the posting.
			full := x >> ((64 - long) & 63)
			rem, n := full>>1, g.short
			x <<= g.short & 63
			isLong := rem >= g.thresh
			if isLong {
				rem = full - g.thresh
			}
			if isLong {
				n = long
			}
			if isLong {
				x <<= 1
			}
			// Gamma: glen ones, a zero, then the glen low bits of f_dt.
			h = uint(bits.Len64(^x)) - 1
			glen := 63 - h
			fdt := (x<<(glen&63) | 1<<63) >> (h & 63)
			n += q + 2*glen + 2
			if n > left {
				break
			}
			left -= n
			w = x << (^(2 * h) & 63) // past the 2*glen+1 bits of the gamma code
			doc += int64(uint64(q)*g.b + rem + 1)
			dst[i] = Posting{Doc: uint32(doc), FDT: uint32(fdt)}
			i++
		}
		if left < avail {
			r.Skip(avail - left)
			continue
		}
		gap, err := g.Read(r)
		if err != nil {
			return doc, fmt.Errorf("codec: posting %d gap: %w", i, err)
		}
		fdt, err := Gamma(r)
		if err == nil && fdt > math.MaxUint32 {
			err = errWide
		}
		if err != nil {
			return doc, fmt.Errorf("codec: posting %d f_dt: %w", i, err)
		}
		doc += int64(gap)
		dst[i] = Posting{Doc: uint32(doc), FDT: uint32(fdt)}
		i++
	}
	return doc, nil
}

// errWide is the error of a frequency wider than the 32 bits of a posting.
var errWide = errors.New("over 32 bits")
