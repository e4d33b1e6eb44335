package index

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"teraphim/internal/bitio"
)

// buildTiny builds a small index over fixed documents.
func buildTiny(t *testing.T) *Index {
	t.Helper()
	b := NewBuilder()
	docs := [][]string{
		{"cat", "dog", "cat"},
		{"dog", "fish"},
		{"cat", "fish", "bird", "fish"},
		{"bird"},
	}
	for _, d := range docs {
		b.Add(d)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuilderBasics(t *testing.T) {
	ix := buildTiny(t)
	if ix.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if ix.NumTerms() != 4 {
		t.Fatalf("NumTerms = %d", ix.NumTerms())
	}
	wantFT := map[string]uint32{"cat": 2, "dog": 2, "fish": 2, "bird": 2}
	for term, want := range wantFT {
		if got := ix.TermFreq(term); got != want {
			t.Errorf("TermFreq(%q) = %d, want %d", term, got, want)
		}
	}
	if got := ix.TermFreq("absent"); got != 0 {
		t.Errorf("TermFreq(absent) = %d", got)
	}
	if ix.NumPostings() != 8 {
		t.Errorf("NumPostings = %d, want 8", ix.NumPostings())
	}
}

func TestDocWeights(t *testing.T) {
	ix := buildTiny(t)
	// Doc 0: cat f=2, dog f=1 -> sqrt(log(3)^2 + log(2)^2)
	want := math.Sqrt(math.Pow(math.Log(3), 2) + math.Pow(math.Log(2), 2))
	if got := float64(ix.weights[0]); math.Abs(got-want) > 1e-5 {
		t.Errorf("W_0 = %f, want %f", got, want)
	}
	if l := ix.lens[2]; l != 4 {
		t.Errorf("length of doc 2 = %d, want 4", l)
	}
}

func TestCursorSequential(t *testing.T) {
	ix := buildTiny(t)
	c, err := ix.Cursor("fish")
	if err != nil {
		t.Fatal(err)
	}
	var got []Posting
	for c.Next() {
		got = append(got, c.Posting())
	}
	want := []Posting{{Doc: 1, FDT: 1}, {Doc: 2, FDT: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fish postings = %v, want %v", got, want)
	}
	if c.Next() {
		t.Fatal("Next after exhaustion must return false")
	}
}

func TestCursorMissingTerm(t *testing.T) {
	ix := buildTiny(t)
	if _, err := ix.Cursor("unicorn"); err == nil {
		t.Fatal("missing term: want error")
	}
}

func TestTermsWalk(t *testing.T) {
	ix := buildTiny(t)
	var terms []string
	ix.Terms(func(term string, ft uint32) bool {
		terms = append(terms, term)
		return true
	})
	if !sort.StringsAreSorted(terms) {
		t.Fatalf("Terms not sorted: %v", terms)
	}
	// Early stop.
	n := 0
	ix.Terms(func(string, uint32) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d terms", n)
	}
}

// synthesizeIndex builds an index with one very common term and several rare
// ones across n documents.
func synthesizeIndex(t testing.TB, n int, skipIvl uint32) (*Index, map[string][]Posting) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	b := NewBuilder(WithSkipInterval(skipIvl))
	truth := map[string][]Posting{}
	for d := 0; d < n; d++ {
		var terms []string
		add := func(term string, f int) {
			for i := 0; i < f; i++ {
				terms = append(terms, term)
			}
			truth[term] = append(truth[term], Posting{Doc: uint32(d), FDT: uint32(f)})
		}
		if rng.Intn(10) < 7 {
			add("common", rng.Intn(3)+1)
		}
		if rng.Intn(10) == 0 {
			add("rare"+strconv.Itoa(rng.Intn(5)), 1)
		}
		add("doc"+strconv.Itoa(d%17), rng.Intn(2)+1)
		b.Add(terms)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix, truth
}

func TestCursorMatchesTruth(t *testing.T) {
	ix, truth := synthesizeIndex(t, 3000, DefaultSkipInterval)
	for term, want := range truth {
		c, err := ix.Cursor(term)
		if err != nil {
			t.Fatalf("cursor %q: %v", term, err)
		}
		got, err := c.Decode(nil)
		if err != nil {
			t.Fatalf("decode %q: %v", term, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("term %q: postings mismatch (%d vs %d entries)", term, len(got), len(want))
		}
	}
}

func TestAdvance(t *testing.T) {
	ix, truth := synthesizeIndex(t, 3000, DefaultSkipInterval)
	want := truth["common"]
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		c, err := ix.Cursor("common")
		if err != nil {
			t.Fatal(err)
		}
		// A few increasing random targets per cursor.
		target := uint32(0)
		for hop := 0; hop < 4; hop++ {
			target += uint32(rng.Intn(900))
			ok := c.Advance(target)
			// Reference answer.
			i := sort.Search(len(want), func(i int) bool { return want[i].Doc >= target })
			if i == len(want) {
				if ok {
					t.Fatalf("Advance(%d) = true, want false", target)
				}
				break
			}
			if !ok {
				t.Fatalf("Advance(%d) = false, want doc %d", target, want[i].Doc)
			}
			if c.Posting() != want[i] {
				t.Fatalf("Advance(%d) = %+v, want %+v", target, c.Posting(), want[i])
			}
			target = c.Posting().Doc
		}
	}
}

func TestAdvanceUsesSkips(t *testing.T) {
	ix, truth := synthesizeIndex(t, 5000, DefaultSkipInterval)
	want := truth["common"]
	last := want[len(want)-1].Doc

	withSkips, err := ix.Cursor("common")
	if err != nil {
		t.Fatal(err)
	}
	if !withSkips.Advance(last) {
		t.Fatal("Advance to last doc failed")
	}
	if withSkips.DecodedPostings >= uint64(len(want))/2 {
		t.Fatalf("skip-based Advance decoded %d of %d postings: skips not effective",
			withSkips.DecodedPostings, len(want))
	}

	ixNoSkip, _ := synthesizeIndex(t, 5000, 0)
	noSkips, err := ixNoSkip.Cursor("common")
	if err != nil {
		t.Fatal(err)
	}
	if !noSkips.Advance(last) {
		t.Fatal("Advance without skips failed")
	}
	if noSkips.DecodedPostings != uint64(len(want)) {
		t.Fatalf("skipless Advance decoded %d, want all %d", noSkips.DecodedPostings, len(want))
	}
}

func TestDecodeOnConsumedCursor(t *testing.T) {
	ix := buildTiny(t)
	c, err := ix.Cursor("cat")
	if err != nil {
		t.Fatal(err)
	}
	c.Next()
	if _, err := c.Decode(nil); err == nil {
		t.Fatal("Decode on consumed cursor: want error")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	ix, truth := synthesizeIndex(t, 2000, DefaultSkipInterval)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.NumDocs() != ix.NumDocs() || ix2.NumTerms() != ix.NumTerms() ||
		ix2.NumPostings() != ix.NumPostings() {
		t.Fatalf("header mismatch after round trip")
	}
	for d := uint32(0); d < ix.NumDocs(); d++ {
		w1 := float64(ix.weights[d])
		w2 := float64(ix2.weights[d])
		if w1 != w2 {
			t.Fatalf("doc %d weight %f != %f", d, w1, w2)
		}
	}
	for term, want := range truth {
		c, err := ix2.Cursor(term)
		if err != nil {
			t.Fatalf("reloaded cursor %q: %v", term, err)
		}
		got, err := c.Decode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("term %q mismatch after reload", term)
		}
	}
	// Skip structure must survive persistence.
	c, err := ix2.Cursor("common")
	if err != nil {
		t.Fatal(err)
	}
	lastDoc := truth["common"][len(truth["common"])-1].Doc
	if !c.Advance(lastDoc) {
		t.Fatal("Advance on reloaded index failed")
	}
	if c.DecodedPostings >= uint64(len(truth["common"]))/2 {
		t.Fatal("skips not effective after reload")
	}
}

func TestPersistRejectsCorrupt(t *testing.T) {
	ix := buildTiny(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadFrom(bytes.NewReader(raw[:8])); err == nil {
		t.Fatal("truncated index: want error")
	}
	bad := append([]byte("XXXX"), raw[4:]...)
	if _, err := ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic: want error")
	}
}

func TestBuildRejectsOversizeTerm(t *testing.T) {
	b := NewBuilder()
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	b.Add([]string{string(long)})
	if _, err := b.Build(); err == nil {
		t.Fatal("300-byte term: want error")
	}
}

func TestQuickIndexRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(WithSkipInterval(uint32(rng.Intn(8)) * 4)) // sometimes 0
		ndocs := rng.Intn(200) + 1
		truth := map[string][]Posting{}
		for d := 0; d < ndocs; d++ {
			nterms := rng.Intn(10)
			counts := map[string]int{}
			for i := 0; i < nterms; i++ {
				counts["t"+strconv.Itoa(rng.Intn(30))]++
			}
			var terms []string
			for term, f := range counts {
				for i := 0; i < f; i++ {
					terms = append(terms, term)
				}
				truth[term] = append(truth[term], Posting{Doc: uint32(d), FDT: uint32(f)})
			}
			b.Add(terms)
		}
		ix, err := b.Build()
		if err != nil {
			return false
		}
		for term, want := range truth {
			sort.Slice(want, func(i, j int) bool { return want[i].Doc < want[j].Doc })
			c, err := ix.Cursor(term)
			if err != nil {
				return false
			}
			got, err := c.Decode(nil)
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// benchDocs returns BenchmarkBuild's documents: 2,000 of 20–119 terms drawn
// uniformly from 5,000.
func benchDocs() [][]string {
	rng := rand.New(rand.NewSource(3))
	docs := make([][]string, 2000)
	for d := range docs {
		n := rng.Intn(100) + 20
		docs[d] = make([]string, n)
		for i := range docs[d] {
			docs[d][i] = "term" + strconv.Itoa(rng.Intn(5000))
		}
	}
	return docs
}

// mapBuilder is Builder as it was before term ids, its Add kept verbatim as
// the reference: one map per document, W_d summed in that map's iteration
// order.
type mapBuilder struct {
	terms   map[string][]Posting
	weights []float32
	lens    []uint32
	skipIvl uint32
}

func (b *mapBuilder) Add(terms []string) uint32 {
	doc := uint32(len(b.weights))
	counts := make(map[string]uint32, len(terms))
	for _, t := range terms {
		counts[t]++
	}
	var sumSq float64
	for t, f := range counts {
		b.terms[t] = append(b.terms[t], Posting{Doc: doc, FDT: f})
		w := math.Log(float64(f) + 1)
		sumSq += w * w
	}
	b.weights = append(b.weights, float32(math.Sqrt(sumSq)))
	b.lens = append(b.lens, uint32(len(terms)))
	return doc
}

func (b *mapBuilder) Build() (*Index, error) {
	idx := &Index{
		entries: make([]termEntry, 0, len(b.terms)),
		byTerm:  make(map[string]int, len(b.terms)),
		weights: b.weights,
		lens:    b.lens,
		numDocs: uint32(len(b.weights)),
		skipIvl: b.skipIvl,
	}
	terms := make([]string, 0, len(b.terms))
	for t := range b.terms {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	w := bitio.NewWriter(4096)
	for _, t := range terms {
		postings := b.terms[t]
		entry, err := compressList(w, t, postings, idx.numDocs, b.skipIvl)
		if err != nil {
			return nil, err
		}
		idx.byTerm[t] = len(idx.entries)
		idx.entries = append(idx.entries, entry)
		idx.numPtrs += uint64(len(postings))
		idx.postings += uint64(len(entry.postings))
	}
	return idx, nil
}

// TestBuilderMatchesMapReference: the id-counting Builder writes the bytes
// the map-counting one wrote, and — its W_d summed in first-appearance order
// rather than map order — the same bytes on every build.
func TestBuilderMatchesMapReference(t *testing.T) {
	docs := benchDocs()
	serialise := func(ix *Index, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := &mapBuilder{terms: map[string][]Posting{}, skipIvl: DefaultSkipInterval}
	for _, d := range docs {
		ref.Add(d)
	}
	want := serialise(ref.Build())
	for run := 0; run < 20; run++ {
		b := NewBuilder()
		for _, d := range docs {
			b.Add(d)
		}
		if got := serialise(b.Build()); !bytes.Equal(got, want) {
			t.Fatalf("build %d: %d bytes differ from the map reference's %d", run, len(got), len(want))
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	docs := benchDocs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := NewBuilder()
		for _, d := range docs {
			builder.Add(d)
		}
		if _, err := builder.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCursorScan(b *testing.B) {
	ix, truth := synthesizeIndex(b, 20000, DefaultSkipInterval)
	n := len(truth["common"])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := ix.Cursor("common")
		if err != nil {
			b.Fatal(err)
		}
		cnt := 0
		for c.Next() {
			cnt++
		}
		if cnt != n {
			b.Fatalf("scanned %d, want %d", cnt, n)
		}
	}
}

// TestMergeEquivalentToDirectBuild splits a corpus, builds per-part
// indexes, merges them, and requires bit-identical equality with the index
// of the whole corpus.
func TestMergeEquivalentToDirectBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var allDocs [][]string
	for d := 0; d < 900; d++ {
		n := rng.Intn(30) + 1
		terms := make([]string, n)
		for i := range terms {
			terms[i] = "t" + strconv.Itoa(rng.Intn(200))
		}
		allDocs = append(allDocs, terms)
	}
	whole := NewBuilder()
	for _, d := range allDocs {
		whole.Add(d)
	}
	want, err := whole.Build()
	if err != nil {
		t.Fatal(err)
	}

	cuts := []int{0, 250, 600, 900}
	var subs []*Index
	var offsets []uint32
	for i := 0; i+1 < len(cuts); i++ {
		b := NewBuilder()
		for _, d := range allDocs[cuts[i]:cuts[i+1]] {
			b.Add(d)
		}
		ix, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, ix)
		offsets = append(offsets, uint32(cuts[i]))
	}
	got, err := Merge(subs, offsets, uint32(len(allDocs)))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != want.NumDocs() || got.NumTerms() != want.NumTerms() ||
		got.NumPostings() != want.NumPostings() || got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("merged shape differs: %d/%d docs, %d/%d terms, %d/%d postings, %d/%d bytes",
			got.NumDocs(), want.NumDocs(), got.NumTerms(), want.NumTerms(),
			got.NumPostings(), want.NumPostings(), got.SizeBytes(), want.SizeBytes())
	}
	for d := uint32(0); d < want.NumDocs(); d++ {
		w1 := float64(want.weights[d])
		w2 := float64(got.weights[d])
		if w1 != w2 {
			t.Fatalf("doc %d weight %f != %f", d, w1, w2)
		}
		l1 := want.lens[d]
		l2 := got.lens[d]
		if l1 != l2 {
			t.Fatalf("doc %d len %d != %d", d, l1, l2)
		}
	}
	want.Terms(func(term string, ft uint32) bool {
		c1, err1 := want.Cursor(term)
		c2, err2 := got.Cursor(term)
		if err1 != nil || err2 != nil {
			t.Fatalf("cursor %q: %v %v", term, err1, err2)
		}
		p1, err1 := c1.Decode(nil)
		p2, err2 := c2.Decode(nil)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(p1, p2) {
			t.Fatalf("term %q postings differ after merge", term)
		}
		return true
	})
}

func TestMergeValidation(t *testing.T) {
	b := NewBuilder()
	b.Add([]string{"x"})
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(nil, nil, 0); err == nil {
		t.Fatal("empty merge: want error")
	}
	if _, err := Merge([]*Index{ix}, []uint32{0, 1}, 1); err == nil {
		t.Fatal("offset count mismatch: want error")
	}
	if _, err := Merge([]*Index{ix}, []uint32{5}, 1); err == nil {
		t.Fatal("offset beyond collection: want error")
	}
	if _, err := Merge([]*Index{ix}, []uint32{0}, 10); err == nil {
		t.Fatal("coverage mismatch: want error")
	}
}

func TestQuantizeWeights(t *testing.T) {
	ix, _ := synthesizeIndex(t, 2000, DefaultSkipInterval)
	q, err := ix.QuantizeWeights()
	if err != nil {
		t.Fatal(err)
	}
	// Quantized weights stay within one bucket (~0.4% for 256 log buckets
	// over this range) of the exact values.
	var maxRel float64
	for d := uint32(0); d < ix.NumDocs(); d++ {
		exact := float64(ix.weights[d])
		approx := float64(q.weights[d])
		if exact == 0 {
			if approx != 0 {
				t.Fatalf("doc %d: zero weight became %f", d, approx)
			}
			continue
		}
		rel := math.Abs(approx-exact) / exact
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel > 0.05 {
		t.Fatalf("max relative quantization error %.4f too large", maxRel)
	}
	// Postings are shared and unaffected.
	c1, _ := ix.Cursor("common")
	c2, _ := q.Cursor("common")
	p1, _ := c1.Decode(nil)
	p2, _ := c2.Decode(nil)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("quantization disturbed postings")
	}
	// Table size claim: 4 bytes exact vs ~1 byte quantized.
	if q.WeightsTableBytes(true) >= ix.WeightsTableBytes(false)/2 {
		t.Fatalf("quantized table %d B not well below exact %d B",
			q.WeightsTableBytes(true), ix.WeightsTableBytes(false))
	}
}

func TestQuantizeEmptyIndex(t *testing.T) {
	b := NewBuilder()
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.QuantizeWeights(); err == nil {
		t.Fatal("empty index: want error")
	}
	// All-empty documents quantize to themselves.
	b2 := NewBuilder()
	b2.Add(nil)
	ix2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ix2.QuantizeWeights()
	if err != nil {
		t.Fatal(err)
	}
	if w := q.weights[0]; w != 0 {
		t.Fatalf("empty doc weight %f", w)
	}
}
