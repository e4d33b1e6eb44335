package codec

import (
	"fmt"
	"math/bits"

	"teraphim/internal/bitio"
)

// Posting is one (document, within-document frequency) pair in an inverted
// list. Doc identifiers are local to a collection and start at 0.
type Posting struct {
	Doc uint32
	FDT uint32 // f_{d,t}: occurrences of the term in the document
}

// EncodePostings appends the compressed form of postings to w using the MG
// layout: document gaps Golomb-coded with a parameter derived from the list
// density, frequencies gamma-coded. Postings must be sorted by Doc with no
// duplicates. numDocs is the collection size N used to tune the Golomb
// parameter; it must be greater than the largest Doc.
func EncodePostings(w *bitio.Writer, postings []Posting, numDocs uint32) error {
	if len(postings) == 0 {
		return nil
	}
	b := GolombParameter(uint64(numDocs), uint64(len(postings)))
	prev := int64(-1)
	for i, p := range postings {
		gap := int64(p.Doc) - prev
		if gap <= 0 {
			return fmt.Errorf("codec: postings not strictly increasing at index %d (doc %d)", i, p.Doc)
		}
		if p.Doc >= numDocs {
			return fmt.Errorf("codec: doc %d outside collection of %d documents", p.Doc, numDocs)
		}
		if err := PutGolomb(w, uint64(gap), b); err != nil {
			return err
		}
		if err := PutGamma(w, uint64(p.FDT)); err != nil {
			return fmt.Errorf("codec: f_dt for doc %d: %w", p.Doc, err)
		}
		prev = int64(p.Doc)
	}
	return nil
}

// DecodePostingsInto is the allocation-free block decoder under the
// cursors: it decodes exactly len(dst) postings from r into dst, given the
// document id preceding the block (prevDoc, -1 at the start of a list — gap
// coding is continuous across blocks, so a decoder that seeks to a skip point
// resumes with the skip entry's last document). It returns the last document
// id decoded so the caller can chain blocks. No bounds validation is
// performed beyond the bitstream itself; callers wanting the checked path use
// DecodePostings.
//
// Postings are taken from the reader's 64-bit window, as many as fit per
// refill, and one comparison of a posting's length against the valid bits
// left stands in for every per-field end-of-input check. A posting that does
// not fit a whole window — a very long code, or the end of the input — goes
// through the single-value readers, which report the error.
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
		if err != nil {
			return doc, fmt.Errorf("codec: posting %d f_dt: %w", i, err)
		}
		doc += int64(gap)
		dst[i] = Posting{Doc: uint32(doc), FDT: uint32(fdt)}
		i++
	}
	return doc, nil
}

// DecodePostings reads count postings previously written by EncodePostings
// with the same numDocs, appending them to dst and returning it.
func DecodePostings(dst []Posting, r *bitio.Reader, count int, numDocs uint32) ([]Posting, error) {
	if count == 0 {
		return dst, nil
	}
	g := NewGolombCode(GolombParameter(uint64(numDocs), uint64(count)))
	doc := int64(-1)
	for i := 0; i < count; i++ {
		gap, err := g.Read(r)
		if err != nil {
			return dst, fmt.Errorf("codec: posting %d gap: %w", i, err)
		}
		fdt, err := Gamma(r)
		if err != nil {
			return dst, fmt.Errorf("codec: posting %d f_dt: %w", i, err)
		}
		doc += int64(gap)
		if doc >= int64(numDocs) {
			return dst, fmt.Errorf("codec: decoded doc %d outside collection of %d documents", doc, numDocs)
		}
		dst = append(dst, Posting{Doc: uint32(doc), FDT: uint32(fdt)})
	}
	return dst, nil
}
