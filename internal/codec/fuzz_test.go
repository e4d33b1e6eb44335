package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"teraphim/internal/bitio"
)

// postingsFromBytes derives a valid postings list from arbitrary fuzz
// bytes: consecutive byte pairs become (gap, f_dt) with gap ≥ 1 and
// f_dt ≥ 1, truncated at numDocs — exactly the contract AppendList
// demands (strictly increasing docs below numDocs, positive frequencies).
func postingsFromBytes(data []byte, numDocs uint32) []Posting {
	var postings []Posting
	doc := int64(-1)
	for i := 0; i+1 < len(data); i += 2 {
		doc += int64(data[i]%7) + 1
		if doc >= int64(numDocs) {
			break
		}
		postings = append(postings, Posting{Doc: uint32(doc), FDT: uint32(data[i+1]%255) + 1})
	}
	return postings
}

// FuzzPostingsRoundTrip checks the MG inverted-list codec end to end:
// every doc-gap/frequency list derived from fuzz input must survive
// Golomb/gamma encode → decode exactly, for any collection size.
func FuzzPostingsRoundTrip(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21}, uint32(100))
	f.Add([]byte{0, 0, 0, 0}, uint32(1))
	f.Add([]byte{255, 255, 255, 1}, uint32(1<<30))
	f.Add([]byte{}, uint32(50))
	f.Fuzz(func(t *testing.T, data []byte, numDocs uint32) {
		if numDocs == 0 {
			numDocs = 1
		}
		postings := postingsFromBytes(data, numDocs)
		w := bitio.NewWriter(len(postings) * 2)
		if err := AppendList(w, postings, numDocs, 0, nil); err != nil {
			t.Fatalf("encode valid postings (%d entries, N=%d): %v", len(postings), numDocs, err)
		}
		got := make([]Posting, len(postings))
		if used, err := DecodeList(got, w.Bytes(), numDocs, 0, nil); err != nil || used != w.BitLen() {
			t.Fatalf("decode (%d entries, N=%d): %d of %d bits, %v", len(postings), numDocs, used, w.BitLen(), err)
		}
		for i := range postings {
			if got[i] != postings[i] {
				t.Fatalf("posting %d: got %+v, want %+v", i, got[i], postings[i])
			}
		}
	})
}

// FuzzPostingsDecodeCorrupt throws arbitrary bits at DecodeList, the
// decoder of lists from files and peers: it must error or succeed without
// panicking, and a list it accepts must hold ascending documents below
// numDocs with non-zero frequencies.
func FuzzPostingsDecodeCorrupt(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xaa}, 3, uint32(100))
	f.Add([]byte{}, 1, uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, count int, numDocs uint32) {
		if numDocs == 0 {
			numDocs = 1
		}
		if count < 0 {
			count = 0
		}
		if count > 1<<16 {
			count = 1 << 16 // decoded postings are bounded by input bits anyway
		}
		got := make([]Posting, count)
		if _, err := DecodeList(got, data, numDocs, 0, nil); err != nil {
			return
		}
		for i, p := range got {
			if p.Doc >= numDocs || p.FDT == 0 || (i > 0 && p.Doc <= got[i-1].Doc) {
				t.Fatalf("posting %d: %+v in a collection of %d, after %+v", i, p, numDocs, got[max(i-1, 0)])
			}
		}
	})
}

// TestPostingsQuickRoundTrip is the testing/quick twin of the fuzz target,
// so the property is exercised on every plain `go test` run.
func TestPostingsQuickRoundTrip(t *testing.T) {
	prop := func(data []byte, numDocs uint32) bool {
		if numDocs == 0 {
			numDocs = 1
		}
		postings := postingsFromBytes(data, numDocs)
		w := bitio.NewWriter(len(postings) * 2)
		if err := AppendList(w, postings, numDocs, 0, nil); err != nil {
			return false
		}
		got := make([]Posting, len(postings))
		if _, err := DecodeList(got, w.Bytes(), numDocs, 0, nil); err != nil {
			return false
		}
		return len(postings) == 0 || reflect.DeepEqual(got, postings)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refBits is a bit-at-a-time MSB-first reader over a byte slice, and
// refDecodePostings the posting decoder written on it the way the codec read
// postings before the block decoder: one bit per step, the truncated-binary
// constants recomputed for every value. They share no code with bitio.Reader
// or GolombCode and are the oracle for both.
type refBits struct {
	data []byte
	pos  int // next bit
}

func (r *refBits) bit() (uint64, error) {
	if r.pos >= len(r.data)*8 {
		return 0, bitio.ErrUnexpectedEOF
	}
	b := r.data[r.pos/8] >> (7 - uint(r.pos%8)) & 1
	r.pos++
	return uint64(b), nil
}

func (r *refBits) bits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.bit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

func (r *refBits) unary() (uint64, error) {
	for v := uint64(0); ; v++ {
		b, err := r.bit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return v, nil
		}
	}
}

func (r *refBits) golomb(b uint64) (uint64, error) {
	q, err := r.unary()
	if err != nil {
		return 0, err
	}
	var rem uint64
	if b > 1 {
		nbits := uint(bits.Len64(b - 1))
		thresh := uint64(1)<<nbits - b
		if rem, err = r.bits(nbits - 1); err != nil {
			return 0, err
		}
		if rem >= thresh {
			last, err := r.bit()
			if err != nil {
				return 0, err
			}
			rem = rem<<1 + last - thresh
		}
	}
	return q*b + rem + 1, nil
}

func (r *refBits) gamma() (uint64, error) {
	n, err := r.unary()
	if err != nil {
		return 0, err
	}
	if n > 63 {
		return 0, fmt.Errorf("codec: gamma length %d out of range", n)
	}
	rest, err := r.bits(uint(n))
	if err != nil {
		return 0, err
	}
	return 1<<n | rest, nil
}

func refDecodePostings(dst []Posting, r *refBits, b uint64, prevDoc int64) (int64, error) {
	doc := prevDoc
	for i := range dst {
		gap, err := r.golomb(b)
		if err != nil {
			return doc, fmt.Errorf("codec: posting %d gap: %w", i, err)
		}
		fdt, err := r.gamma()
		if err == nil && fdt > math.MaxUint32 {
			err = errWide
		}
		if err != nil {
			return doc, fmt.Errorf("codec: posting %d f_dt: %w", i, err)
		}
		doc += int64(gap)
		dst[i] = Posting{Doc: uint32(doc), FDT: uint32(fdt)}
	}
	return doc, nil
}

// blockDivisors are the Golomb divisors the differential fuzz runs every
// list under: no remainder bits, one, the smallest with both codeword
// lengths, a power of two, an ordinary one and the largest a 2³² collection
// can produce.
var blockDivisors = []uint64{1, 2, 3, 64, 1000, 1 << 31}

// checkBlockAgainstReference decodes count postings from stream with the
// block decoder and with the reference and requires the same postings, the
// same last document, the same error text and the same final position.
func checkBlockAgainstReference(t *testing.T, stream []byte, count int, b uint64) {
	t.Helper()
	want := make([]Posting, count)
	ref := &refBits{data: stream}
	wantDoc, wantErr := refDecodePostings(want, ref, b, -1)

	got := make([]Posting, count)
	r := bitio.NewReader(stream)
	g := NewGolombCode(b)
	gotDoc, gotErr := g.DecodePostingsInto(got, r, -1)

	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("b=%d, %d postings from %d bytes: error %v, reference %v", b, count, len(stream), gotErr, wantErr)
	}
	if gotDoc != wantDoc || !reflect.DeepEqual(got, want) {
		t.Fatalf("b=%d, %d postings from %d bytes: decoded %v ending at doc %d, reference %v ending at doc %d",
			b, count, len(stream), got, gotDoc, want, wantDoc)
	}
	// A read that runs past the end consumes the rest of the input on both
	// sides, so the positions agree after an error too.
	if r.BitPos() != ref.pos {
		t.Fatalf("b=%d, %d postings from %d bytes: reader at bit %d, reference at bit %d", b, count, len(stream), r.BitPos(), ref.pos)
	}
}

// FuzzDecodeBlockMatchesReference checks the block decoder against the
// bit-at-a-time reference. The fuzz bytes are used twice: as (gap, f_dt)
// pairs encoded under each divisor and then cut at every byte, so every
// truncation point of a valid list is decoded; and raw, as a hostile
// bitstream of long unary runs and out-of-range gamma lengths.
func FuzzDecodeBlockMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 0, 0, 9, 0, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x00, 0x02, 0x80, 0, 0, 0, 0x7f, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600] // every truncation point makes the run quadratic in the input
		}
		// Six bytes make one posting: four of gap, two of f_dt.
		type pair struct{ gap, fdt uint64 }
		var pairs []pair
		for i := 0; i+6 <= len(data); i += 6 {
			pairs = append(pairs, pair{
				gap: uint64(binary.BigEndian.Uint32(data[i:])),
				fdt: uint64(binary.BigEndian.Uint16(data[i+4:])) + 1,
			})
		}
		for _, b := range blockDivisors {
			w := bitio.NewWriter(len(data))
			for _, p := range pairs {
				// Gaps spread over a few quotients of every divisor.
				if err := PutGolomb(w, p.gap%(4*b)+1, b); err != nil {
					t.Fatal(err)
				}
				if err := PutGamma(w, p.fdt); err != nil {
					t.Fatal(err)
				}
			}
			stream := w.Bytes()
			for cut := 0; cut <= len(stream); cut++ {
				checkBlockAgainstReference(t, stream[:cut], len(pairs), b)
			}
			checkBlockAgainstReference(t, data, len(data)/2+1, b)
		}
	})
}

// refAppendList is the per-field coder AppendList's one-write postings
// replaced, kept as the oracle: per posting the gap's Golomb code through
// put (a division, then unary and remainder writes) and the frequency's gamma
// code through PutGamma. It returns the list's sync points, laid out as
// AppendList lays them.
func refAppendList(w *bitio.Writer, postings []Posting, numDocs uint32, ivl int) []uint32 {
	g := NewGolombCode(GolombParameter(uint64(numDocs), uint64(len(postings))))
	n := 0
	if ivl > 0 && len(postings) > 0 {
		n = (len(postings) - 1) / ivl
	}
	skips := make([]uint32, 2*n)
	start, prev := w.BitLen(), int64(-1)
	for i, p := range postings {
		if ivl > 0 && i > 0 && i%ivl == 0 {
			k := i/ivl - 1
			skips[k], skips[n+k] = uint32(prev), uint32(w.BitLen()-start)
		}
		g.put(w, uint64(int64(p.Doc)-prev))
		if err := PutGamma(w, uint64(p.FDT)); err != nil {
			panic(err)
		}
		prev = int64(p.Doc)
	}
	return skips
}

// runListFromBytes derives a valid list from fuzz bytes: a uvarint of
// leading bits to write before the list, a uvarint of documents past the
// last posting, then (gap, f_dt, repeat) uvarint triples, each adding repeat+1
// postings at that gap and frequency, gaps and frequencies clamped to ≥ 1 and
// 32 bits and the list to 1<<22 postings. Repeats let a short input describe
// a list dense enough for a divisor of 1.
func runListFromBytes(data []byte) (lead uint, postings []Posting, numDocs uint32) {
	next := func() uint64 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			data = nil
			return 0
		}
		data = data[n:]
		return v
	}
	lead = uint(next() % 64)
	slack := next()
	doc := int64(-1)
	for len(data) > 0 && len(postings) < 1<<22 {
		gap, fdt, repeat := max(next()%(1<<32), 1), next()%math.MaxUint32+1, next()
		for r := uint64(0); r <= repeat && len(postings) < 1<<22; r++ {
			if doc+int64(gap) >= math.MaxUint32-1 {
				break
			}
			doc += int64(gap)
			postings = append(postings, Posting{Doc: uint32(doc), FDT: uint32(fdt)})
		}
	}
	return lead, postings, uint32(min(uint64(doc+1)+slack, math.MaxUint32))
}

// FuzzAppendListMatchesReference holds AppendList, which writes a posting in
// one call when its codes fit 56 bits and takes its quotient from a
// reciprocal, to the per-field coder: the same bits, from a start that is not
// byte-aligned, and the same sync points, at skip interval 0 and 64.
func FuzzAppendListMatchesReference(f *testing.F) {
	seed := func(lead, slack uint64, runs ...[3]uint64) []byte {
		b := binary.AppendUvarint(binary.AppendUvarint(nil, lead), slack)
		for _, r := range runs {
			b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, r[0]), r[1]), r[2])
		}
		return b
	}
	// b = 1 (2,333,953 postings over 3,382,528 documents) and a gap of 2²⁰,
	// whose unary quotient takes the per-field path.
	f.Add(seed(3, 0, [3]uint64{1, 1, 2333951}, [3]uint64{1 << 20, 2, 0}))
	f.Add(seed(0, 0, [3]uint64{1, 1, 219}, [3]uint64{100, 1, 0}))                 // the same at 320 documents
	f.Add(seed(0, 9, [3]uint64{5, math.MaxUint32 - 1, 0}, [3]uint64{1, 1, 2}))    // f_dt of 2³²−1
	f.Add(seed(5, 1000, [3]uint64{7, 3, 200}, [3]uint64{300, 1, 3}))              // ends mid-word
	f.Add(seed(1, 0, [3]uint64{1 << 31, 1, 0}, [3]uint64{1<<31 - 3, 1 << 20, 0})) // near 2³² documents
	f.Fuzz(func(t *testing.T, data []byte) {
		lead, postings, numDocs := runListFromBytes(data)
		for _, ivl := range []int{0, 64} {
			var got, want bitio.Writer
			got.WriteBits(0x5a5a5a5a5a5a5a5a, lead)
			want.WriteBits(0x5a5a5a5a5a5a5a5a, lead)
			n := 0
			if ivl > 0 && len(postings) > 0 {
				n = (len(postings) - 1) / ivl
			}
			skips := make([]uint32, 2*n)
			if err := AppendList(&got, postings, numDocs, ivl, skips); err != nil {
				t.Fatalf("ivl %d: %d postings over %d documents: %v", ivl, len(postings), numDocs, err)
			}
			wantSkips := refAppendList(&want, postings, numDocs, ivl)
			if got.BitLen() != want.BitLen() || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("ivl %d: %d postings over %d documents: %d bits, reference %d, or other bytes",
					ivl, len(postings), numDocs, got.BitLen(), want.BitLen())
			}
			if !slices.Equal(skips, wantSkips) {
				t.Fatalf("ivl %d: sync points %v, reference %v", ivl, skips, wantSkips)
			}
		}
	})
}
