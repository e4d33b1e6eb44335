package huffman

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"teraphim/internal/bitio"
)

func TestCanonicalRoundTrip(t *testing.T) {
	freqs := []uint64{10, 0, 5, 1, 1, 30, 2}
	c, err := New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(64)
	syms := []uint32{0, 2, 3, 4, 5, 6, 5, 5, 0}
	for _, s := range syms {
		if err := c.Encode(w, s); err != nil {
			t.Fatal(err)
		}
	}
	r := bitio.NewReader(w.Bytes())
	for i, want := range syms {
		got, err := c.Decode(r)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("decode %d: got %d want %d", i, got, want)
		}
	}
}

func TestUnusedSymbolRejected(t *testing.T) {
	c, err := New([]uint64{10, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(8)
	if err := c.Encode(w, 1); err == nil {
		t.Fatal("encoding zero-frequency symbol: want error")
	}
	if err := c.Encode(w, 99); err == nil {
		t.Fatal("encoding out-of-range symbol: want error")
	}
}

func TestSingleSymbol(t *testing.T) {
	c, err := New([]uint64{0, 7})
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(8)
	for i := 0; i < 3; i++ {
		if err := c.Encode(w, 1); err != nil {
			t.Fatal(err)
		}
	}
	r := bitio.NewReader(w.Bytes())
	for i := 0; i < 3; i++ {
		got, err := c.Decode(r)
		if err != nil || got != 1 {
			t.Fatalf("single-symbol decode: got %d, %v", got, err)
		}
	}
}

func TestEmptyModel(t *testing.T) {
	if _, err := New(nil); err != ErrEmptyModel {
		t.Fatalf("want ErrEmptyModel, got %v", err)
	}
	if _, err := New([]uint64{0, 0}); err != ErrEmptyModel {
		t.Fatalf("all-zero freqs: want ErrEmptyModel, got %v", err)
	}
}

func TestOptimalityAgainstEntropy(t *testing.T) {
	// Huffman expected length must be within 1 bit of the entropy bound.
	freqs := []uint64{50, 25, 12, 6, 3, 2, 1, 1}
	c, err := New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	var total, weighted float64
	for _, f := range freqs {
		total += float64(f)
	}
	var entropy float64
	for sym, f := range freqs {
		if f == 0 {
			continue
		}
		p := float64(f) / total
		entropy += -p * log2(p)
		weighted += p * float64(c.lengths[sym])
	}
	if weighted < entropy || weighted > entropy+1 {
		t.Fatalf("avg codeword %.3f bits vs entropy %.3f: violates Huffman bound", weighted, entropy)
	}
}

func log2(x float64) float64 {
	// Avoid importing math for one call site in tests... actually just use it.
	return ln(x) / ln(2)
}

func ln(x float64) float64 {
	// Series-free: use the stdlib via a tiny indirection to keep gofmt happy.
	return mathLog(x)
}

func TestLengthsRoundTrip(t *testing.T) {
	freqs := []uint64{9, 3, 0, 7, 1, 1, 4}
	c1, err := New(freqs)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewFromLengths(c1.Lengths())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1.codes, c2.codes) {
		t.Fatalf("canonical codes differ after lengths round trip:\n%v\n%v", c1.codes, c2.codes)
	}
}

func TestQuickCanonical(t *testing.T) {
	f := func(seed int64, nsyms uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nsyms%200) + 2
		freqs := make([]uint64, n)
		for i := range freqs {
			if rng.Intn(4) != 0 {
				freqs[i] = uint64(rng.Intn(1000))
			}
		}
		c, err := New(freqs)
		if err != nil {
			// Only acceptable when every frequency is zero.
			for _, f := range freqs {
				if f > 0 {
					return false
				}
			}
			return true
		}
		// Encode a random message of present symbols.
		var present []uint32
		for sym, f := range freqs {
			if f > 0 {
				present = append(present, uint32(sym))
			}
		}
		msg := make([]uint32, rng.Intn(100)+1)
		for i := range msg {
			msg[i] = present[rng.Intn(len(present))]
		}
		w := bitio.NewWriter(256)
		for _, s := range msg {
			if err := c.Encode(w, s); err != nil {
				return false
			}
		}
		r := bitio.NewReader(w.Bytes())
		for _, want := range msg {
			got, err := c.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

const sampleDoc = `The efficient management of large text collections is an
important practical problem. With the growth in the use of network services,
text collections such as digital libraries are increasingly being
distributed.`

func sampleCorpus() []string {
	return []string{
		sampleDoc,
		"Ranked queries provide more effective retrieval than Boolean queries.",
		"Each librarian evaluates the query and determines a ranking for the local collection.",
		"Network bandwidth and round-trip times are crucial to efficiency.",
	}
}

func TestTextModelRoundTrip(t *testing.T) {
	m, err := NewTextModel(sampleCorpus())
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range sampleCorpus() {
		data, err := m.CompressDoc(doc)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		got, err := m.DecompressDoc(data)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if got != doc {
			t.Fatalf("doc %d: round trip mismatch\ngot:  %q\nwant: %q", i, got, doc)
		}
	}
}

func TestTextModelNovelTokens(t *testing.T) {
	m, err := NewTextModel(sampleCorpus())
	if err != nil {
		t.Fatal(err)
	}
	novel := "Zyzzyva!!! — unseen@@tokensé 42xyz\n\n\ttabs"
	data, err := m.CompressDoc(novel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.DecompressDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != novel {
		t.Fatalf("novel-token round trip mismatch:\ngot:  %q\nwant: %q", got, novel)
	}
}

func TestTextModelEmptyDoc(t *testing.T) {
	m, err := NewTextModel(sampleCorpus())
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.CompressDoc("")
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.DecompressDoc(data)
	if err != nil || got != "" {
		t.Fatalf("empty doc: got %q, %v", got, err)
	}
}

func TestTextModelCompresses(t *testing.T) {
	// A repetitive corpus must compress well below 50% of raw size.
	base := strings.Repeat(sampleDoc+" ", 20)
	m, err := NewTextModel([]string{base})
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.CompressDoc(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(data)*2 > len(base) {
		t.Fatalf("compressed %d bytes of %d raw: expected < 50%%", len(data), len(base))
	}
}

func TestTextModelMarshalRoundTrip(t *testing.T) {
	m1, err := NewTextModel(sampleCorpus())
	if err != nil {
		t.Fatal(err)
	}
	blob := m1.Marshal()
	m2, err := UnmarshalTextModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.sortedTokens(), m2.sortedTokens()) {
		t.Fatal("lexicons differ after marshal round trip")
	}
	// Cross-compatibility: compress with m1, decompress with m2.
	doc := sampleCorpus()[2]
	data, err := m1.CompressDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.DecompressDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != doc {
		t.Fatalf("cross-model round trip mismatch: %q", got)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	m, err := NewTextModel(sampleCorpus())
	if err != nil {
		t.Fatal(err)
	}
	blob := m.Marshal()
	if _, err := UnmarshalTextModel(blob[:3]); err == nil {
		t.Fatal("truncated header: want error")
	}
	if _, err := UnmarshalTextModel(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated body: want error")
	}
	if _, err := UnmarshalTextModel(append(blob, 0xff)); err == nil {
		t.Fatal("trailing garbage: want error")
	}
}

func BenchmarkCompressDoc(b *testing.B) {
	m, err := NewTextModel(sampleCorpus())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(sampleDoc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.CompressDoc(sampleDoc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressDoc(b *testing.B) {
	m, err := NewTextModel(sampleCorpus())
	if err != nil {
		b.Fatal(err)
	}
	data, err := m.CompressDoc(sampleDoc)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(sampleDoc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.DecompressDoc(data); err != nil {
			b.Fatal(err)
		}
	}
}

func mathLog(x float64) float64 { return math.Log(x) }

// TestOneByteTokens trains on text whose separators are one byte (" ",
// "\n") and longer (", ", ". "), with one-letter words beside longer ones —
// the tokens the lexicon's byte table holds. The marshalled model and the
// compressed documents are pinned to the digests the map-only lexicon
// produced, before and after an Unmarshal, and a one-byte separator the model
// never saw still escapes.
func TestOneByteTokens(t *testing.T) {
	docs := []string{
		"a cat, a dog. I saw a b c\nx y z",
		"I am a man; a plan, a canal. Panama\n",
		"q, r. s t u v w\nx y z a",
	}
	m, err := NewTextModel(docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range []string{" ", "\n"} {
		if m.seps.symbol(tok) == Escape {
			t.Fatalf("trained separator %q escapes", tok)
		}
	}
	for _, tok := range []string{"a", "I", "z"} {
		if m.WordSymbol(tok) == Escape {
			t.Fatalf("trained word %q escapes", tok)
		}
	}
	if m.seps.symbol("\t") != Escape || m.WordSymbol("k") != Escape {
		t.Fatal("an unseen one-byte token has a symbol")
	}
	texts := append(docs, "a\tcat\tI\tk") // "\t" and "k" escape
	digest := func(m *TextModel) string {
		h := sha256.New()
		h.Write(m.Marshal())
		for _, text := range texts {
			data, err := m.CompressDoc(text)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := m.DecompressDoc(data); err != nil || got != text {
				t.Fatalf("%q round-trips to %q, %v", text, got, err)
			}
			h.Write(data)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	const want = "506cdbdbd6bb96869d2e76f8775473e2079b9f8608ab1df3bce4937549f20178"
	if got := digest(m); got != want {
		t.Fatalf("trained model and its documents hash to %s, want %s", got, want)
	}
	back, err := UnmarshalTextModel(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(back); got != want {
		t.Fatalf("unmarshalled model and its documents hash to %s, want %s", got, want)
	}
}

// sortedTokens is a test helper exposing lexicon contents deterministically.
func (m *TextModel) sortedTokens() []string {
	out := make([]string, m.words.tokens.Len())
	for i := range out {
		out[i] = m.words.tokens.At(uint32(i))
	}
	sort.Strings(out)
	return out
}
