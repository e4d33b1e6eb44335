package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func sampleDocs() []Document {
	return []Document{
		{Title: "AP-1", Text: "The quick brown fox jumps over the lazy dog."},
		{Title: "FR-1", Text: "Federal regulations require careful reading.\nSection 2: compliance."},
		{Title: "WSJ-1", Text: "Markets rallied today as distributed systems stocks surged."},
		{Title: "ZIFF-1", Text: ""},
	}
}

func TestBuildAndFetch(t *testing.T) {
	s, err := Build(sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d", s.NumDocs())
	}
	for i, want := range sampleDocs() {
		got, err := s.Fetch(uint32(i))
		if err != nil {
			t.Fatalf("Fetch(%d): %v", i, err)
		}
		if got.Text != want.Text || got.Title != want.Title || got.ID != uint32(i) {
			t.Fatalf("Fetch(%d) = %+v", i, got)
		}
	}
	if _, err := s.Fetch(4); err == nil {
		t.Fatal("out-of-range fetch: want error")
	}
	title, err := s.Title(2)
	if err != nil || title != "WSJ-1" {
		t.Fatalf("Title(2) = %q, %v", title, err)
	}
	if _, err := s.Title(9); err == nil {
		t.Fatal("out-of-range title: want error")
	}
}

func TestFetchCompressedAndDecompress(t *testing.T) {
	s, err := Build(sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.FetchCompressed(1)
	if err != nil {
		t.Fatal(err)
	}
	text, err := s.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if text != sampleDocs()[1].Text {
		t.Fatalf("Decompress mismatch: %q", text)
	}
	if _, err := s.FetchCompressed(99); err == nil {
		t.Fatal("out-of-range compressed fetch: want error")
	}
}

// TestBuildWithAndConcat: documents compressed under an existing model join
// the store that trained it without a read of either — the blobs are shared,
// in order — and the joined store answers for all of them, novel words
// included; a store under another model is refused with the typed error.
func TestBuildWithAndConcat(t *testing.T) {
	first, err := Build(sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	later := []Document{
		{Title: "NEW-1", Text: "Unseen zeppelins moor over the lazy dog."},
		{Title: "NEW-2", Text: ""},
	}
	second, err := BuildWith(first.Model(), later)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := BuildWith(first.Model(), nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Concat([]*Store{first, empty, second})
	if err != nil {
		t.Fatal(err)
	}
	if first.Fetches() != 0 || second.Fetches() != 0 {
		t.Fatalf("Concat read its inputs: %d and %d fetches", first.Fetches(), second.Fetches())
	}
	if all.Model() != first.Model() || all.NumDocs() != 6 || all.RawSize() != first.RawSize()+second.RawSize() ||
		all.CompressedSize() != first.CompressedSize()+second.CompressedSize() {
		t.Fatalf("joined store: %d docs, raw %d, compressed %d", all.NumDocs(), all.RawSize(), all.CompressedSize())
	}
	for i, want := range append(sampleDocs(), later...) {
		got, err := all.Fetch(uint32(i))
		if err != nil || got.Text != want.Text || got.Title != want.Title {
			t.Fatalf("Fetch(%d) = %+v, %v; want %+v", i, got, err, want)
		}
	}
	joined, _ := all.FetchCompressed(4)
	input, _ := second.FetchCompressed(0)
	if &joined[0] != &input[0] {
		t.Fatal("the joined store copied a blob it could share")
	}

	foreign, err := Build(later)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Concat([]*Store{first, foreign}); !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("joining stores of two models: %v, want ErrModelMismatch", err)
	}
	if _, err := Concat(nil); err == nil {
		t.Fatal("joining no stores: want error")
	}
}

func TestCompressionEffective(t *testing.T) {
	// Large repetitive corpus: compressed size must be well under raw.
	var docs []Document
	for i := 0; i < 50; i++ {
		docs = append(docs, Document{
			Title: fmt.Sprintf("doc-%d", i),
			Text:  strings.Repeat("distributed information retrieval systems are fast and effective ", 30),
		})
	}
	s, err := Build(docs)
	if err != nil {
		t.Fatal(err)
	}
	if s.CompressedSize()*2 > s.RawSize() {
		t.Fatalf("compressed %d vs raw %d: expected < 50%%", s.CompressedSize(), s.RawSize())
	}
}

func TestPersistRoundTrip(t *testing.T) {
	s1, err := Build(sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s1.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumDocs() != s1.NumDocs() || s2.RawSize() != s1.RawSize() {
		t.Fatalf("header mismatch: docs %d/%d raw %d/%d",
			s2.NumDocs(), s1.NumDocs(), s2.RawSize(), s1.RawSize())
	}
	for i := uint32(0); i < s1.NumDocs(); i++ {
		d1, err1 := s1.Fetch(i)
		d2, err2 := s2.Fetch(i)
		if err1 != nil || err2 != nil {
			t.Fatalf("fetch %d: %v %v", i, err1, err2)
		}
		if d1 != d2 {
			t.Fatalf("doc %d differs after reload", i)
		}
	}
}

func TestPersistCorrupt(t *testing.T) {
	s, err := Build(sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadFrom(bytes.NewReader(raw[:6])); err == nil {
		t.Fatal("truncated store: want error")
	}
	bad := append([]byte("NOPE"), raw[4:]...)
	if _, err := ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic: want error")
	}
}

func BenchmarkFetch(b *testing.B) {
	var docs []Document
	for i := 0; i < 100; i++ {
		docs = append(docs, Document{
			Title: fmt.Sprintf("d%d", i),
			Text:  strings.Repeat("some moderately interesting document text with variety ", 40),
		})
	}
	s, err := Build(docs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fetch(uint32(i % 100)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReloadedModelEncodesConcurrently: a store read back from disk holds a
// model whose lexicons build their lookup tables on the first encode; a
// librarian ingesting on several goroutines makes that first encode from
// all of them at once, and each must code what the model written out codes.
// Run under -race.
func TestReloadedModelEncodesConcurrently(t *testing.T) {
	s1, err := Build(sampleDocs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s1.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	docs := sampleDocs()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range docs {
				d := docs[(i+g)%len(docs)]
				want, err1 := s1.Model().CompressDoc(d.Text)
				got, err2 := s2.Model().CompressDoc(d.Text)
				if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d, doc %d: reloaded model codes %d bytes, the original %d (%v, %v)", g, d.ID, len(got), len(want), err1, err2)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
