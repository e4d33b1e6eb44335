package codec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"teraphim/internal/bitio"
)

func TestGammaKnownValues(t *testing.T) {
	// Classic gamma codewords.
	cases := []struct {
		v    uint64
		bits string
	}{
		{1, "0"},
		{2, "100"},
		{3, "101"},
		{4, "11000"},
		{7, "11011"},
		{8, "1110000"},
	}
	for _, c := range cases {
		w := bitio.NewWriter(8)
		if err := PutGamma(w, c.v); err != nil {
			t.Fatal(err)
		}
		if got := bitString(w); got != c.bits {
			t.Errorf("gamma(%d) = %s, want %s", c.v, got, c.bits)
		}
	}
}

func TestGammaZeroRejected(t *testing.T) {
	w := bitio.NewWriter(8)
	if err := PutGamma(w, 0); err != ErrNonPositive {
		t.Fatalf("want ErrNonPositive, got %v", err)
	}
	if err := PutGolomb(w, 0, 3); err != ErrNonPositive {
		t.Fatalf("golomb: want ErrNonPositive, got %v", err)
	}
}

func TestGammaRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		if v == 0 {
			v = 1
		}
		w := bitio.NewWriter(16)
		if err := PutGamma(w, v); err != nil {
			return false
		}
		got, err := Gamma(bitio.NewReader(w.Bytes()))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGolombRoundTrip(t *testing.T) {
	f := func(v uint64, b uint64) bool {
		v = v%1_000_000 + 1
		b = b%1000 + 1
		w := bitio.NewWriter(32)
		if err := PutGolomb(w, v, b); err != nil {
			return false
		}
		code := NewGolombCode(b)
		got, err := code.Read(bitio.NewReader(w.Bytes()))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGolombDivisorOne(t *testing.T) {
	// b=1 degenerates to unary; must still round-trip.
	w := bitio.NewWriter(16)
	for v := uint64(1); v <= 5; v++ {
		if err := PutGolomb(w, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	r, code := bitio.NewReader(w.Bytes()), NewGolombCode(1)
	for v := uint64(1); v <= 5; v++ {
		got, err := code.Read(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("golomb b=1: got %d want %d", got, v)
		}
	}
}

func TestGolombParameter(t *testing.T) {
	if b := GolombParameter(0, 10); b != 1 {
		t.Errorf("empty universe: b = %d, want 1", b)
	}
	if b := GolombParameter(1000, 0); b != 1 {
		t.Errorf("empty list: b = %d, want 1", b)
	}
	// Dense list: small parameter.
	if b := GolombParameter(1000, 900); b != 1 {
		t.Errorf("dense list: b = %d, want 1", b)
	}
	// Sparse list: parameter near 0.69 * mean gap.
	if b := GolombParameter(1_000_000, 100); b < 6000 || b > 7500 {
		t.Errorf("sparse list: b = %d, want ≈ 6900", b)
	}
}

func TestVByteRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		var buf []byte
		for _, v := range vals {
			buf = PutVByte(buf, v)
		}
		for _, want := range vals {
			got, n, err := VByte(buf)
			if err != nil || got != want {
				return false
			}
			buf = buf[n:]
		}
		return len(buf) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVByteTruncated(t *testing.T) {
	buf := PutVByte(nil, 1<<40)
	if _, _, err := VByte(buf[:2]); err == nil {
		t.Fatal("truncated vbyte: want error")
	}
	if _, _, err := VByte(nil); err == nil {
		t.Fatal("empty vbyte: want error")
	}
	// Ten bytes carry 70 data bits; at 2⁶⁴+2⁶³+… the last byte holds more
	// than the one bit a uint64 has left, and must not wrap.
	wide := []byte{0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x7f, 0x83}
	if v, _, err := VByte(wide); err != errVByteOverflow {
		t.Fatalf("vbyte over 64 bits: got %d, %v; want errVByteOverflow", v, err)
	}
	if v, _, err := VByte(PutVByte(nil, math.MaxUint64)); err != nil || v != math.MaxUint64 {
		t.Fatalf("vbyte 2⁶⁴−1: got %d, %v", v, err)
	}
}

func TestPostingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		numDocs := uint32(rng.Intn(100_000) + 10)
		n := rng.Intn(int(numDocs))
		postings := randomPostings(rng, n, numDocs)
		w := bitio.NewWriter(1024)
		if err := AppendList(w, postings, numDocs, 0, nil); err != nil {
			t.Fatal(err)
		}
		got := make([]Posting, len(postings))
		if _, err := DecodeList(got, w.Bytes(), numDocs, 0, nil); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != postings[i] {
				t.Fatalf("posting %d: got %+v want %+v", i, got[i], postings[i])
			}
		}
	}
}

func TestPostingsRejectUnsorted(t *testing.T) {
	w := bitio.NewWriter(64)
	err := AppendList(w, []Posting{{Doc: 5, FDT: 1}, {Doc: 5, FDT: 2}}, 10, 0, nil)
	if err == nil {
		t.Fatal("duplicate docs: want error")
	}
	err = AppendList(w, []Posting{{Doc: 5, FDT: 1}, {Doc: 3, FDT: 2}}, 10, 0, nil)
	if err == nil {
		t.Fatal("descending docs: want error")
	}
	err = AppendList(w, []Posting{{Doc: 12, FDT: 1}}, 10, 0, nil)
	if err == nil {
		t.Fatal("doc outside collection: want error")
	}
}

func TestPostingsRejectZeroFDT(t *testing.T) {
	w := bitio.NewWriter(64)
	if err := AppendList(w, []Posting{{Doc: 1, FDT: 0}}, 10, 0, nil); err == nil {
		t.Fatal("zero f_dt: want error")
	}
}

func TestPostingsEmpty(t *testing.T) {
	w := bitio.NewWriter(8)
	if err := AppendList(w, nil, 100, 0, nil); err != nil {
		t.Fatal(err)
	}
	if used, err := DecodeList(nil, w.Bytes(), 100, 0, nil); err != nil || used != 0 || w.BitLen() != 0 {
		t.Fatalf("empty round trip: %d bits coded, %d decoded (%v)", w.BitLen(), used, err)
	}
}

// TestCompressionRatio pins the headline MG property: a Golomb/gamma index
// over realistic postings is far smaller than fixed-width storage.
func TestCompressionRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	numDocs := uint32(50_000)
	postings := randomPostings(rng, 5_000, numDocs)
	w := bitio.NewWriter(1 << 16)
	if err := AppendList(w, postings, numDocs, 0, nil); err != nil {
		t.Fatal(err)
	}
	compressed := len(w.Bytes())
	raw := len(postings) * 8 // uint32 doc + uint32 freq
	if compressed*3 > raw {
		t.Errorf("compressed %d bytes vs raw %d: expected at least 3x reduction", compressed, raw)
	}
}

func randomPostings(rng *rand.Rand, n int, numDocs uint32) []Posting {
	if n <= 0 {
		return nil
	}
	seen := make(map[uint32]bool, n)
	docs := make([]uint32, 0, n)
	for len(docs) < n {
		d := uint32(rng.Intn(int(numDocs)))
		if !seen[d] {
			seen[d] = true
			docs = append(docs, d)
		}
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	postings := make([]Posting, n)
	for i, d := range docs {
		// Zipf-ish frequencies: mostly 1.
		f := uint32(1)
		for rng.Intn(3) == 0 {
			f++
		}
		postings[i] = Posting{Doc: d, FDT: f}
	}
	return postings
}

func bitString(w *bitio.Writer) string {
	n := w.BitLen()
	data := w.Bytes()
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		if data[i/8]>>(7-uint(i%8))&1 == 1 {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

func BenchmarkAppendList(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	postings := randomPostings(rng, 10_000, 1_000_000)
	w := bitio.NewWriter(1 << 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := AppendList(w, postings, 1_000_000, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeList(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	postings := randomPostings(rng, 10_000, 1_000_000)
	w := bitio.NewWriter(1 << 18)
	if err := AppendList(w, postings, 1_000_000, 0, nil); err != nil {
		b.Fatal(err)
	}
	data := w.Bytes()
	dst := make([]Posting, len(postings))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeList(dst, data, 1_000_000, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePostingsInto measures the block decoder the cursors run, in
// skip-block-sized calls, on lists whose density gives each Golomb divisor b.
func BenchmarkDecodePostingsInto(b *testing.B) {
	const n, block = 8192, 64
	for _, div := range []uint64{1, 2, 3, 64, 1000} {
		numDocs := uint32(float64(div) * n / 0.69)
		if numDocs < n {
			numDocs = n
		}
		rng := rand.New(rand.NewSource(1))
		postings := randomPostings(rng, n, numDocs)
		g := NewGolombCode(GolombParameter(uint64(numDocs), n))
		b.Run(fmt.Sprintf("b=%d", g.b), func(b *testing.B) {
			w := bitio.NewWriter(1 << 16)
			if err := AppendList(w, postings, numDocs, 0, nil); err != nil {
				b.Fatal(err)
			}
			data := w.Bytes()
			dst := make([]Posting, block)
			var r bitio.Reader
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(data)
				prev := int64(-1)
				for done := 0; done < n; done += block {
					var err error
					if prev, err = g.DecodePostingsInto(dst, &r, prev); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/posting")
			b.ReportMetric(float64(len(data))*8/n, "bits/posting")
		})
	}
}
