package librarian

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"teraphim/internal/store"
	"teraphim/internal/trecsynth"
)

// textSpans returns the address ranges of docs' texts, sorted, and a test
// of whether an address falls in one of them.
func textSpans(docs []store.Document) func(p uintptr) bool {
	type span struct{ lo, hi uintptr }
	spans := make([]span, 0, len(docs))
	for _, d := range docs {
		if len(d.Text) > 0 {
			p := uintptr(unsafe.Pointer(unsafe.StringData(d.Text)))
			spans = append(spans, span{p, p + uintptr(len(d.Text))})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	return func(p uintptr) bool {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].hi > p })
		return i < len(spans) && spans[i].lo <= p
	}
}

// aliases returns the paths of the strings and byte slices reachable from
// root, through exported and unexported fields alike, whose bytes lie inside
// one of the texts inDoc knows: what the root keeps of its input.
func aliases(root any, inDoc func(p uintptr) bool) []string {
	var found []string
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.String:
			if s := v.String(); s != "" && inDoc(uintptr(unsafe.Pointer(unsafe.StringData(s)))) {
				found = append(found, fmt.Sprintf("%s = %q", path, s))
			}
		case reflect.Pointer, reflect.Map:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Kind() == reflect.Pointer {
				walk(v.Elem(), path)
				return
			}
			for it := v.MapRange(); it.Next(); {
				walk(it.Key(), path+"[key]")
				walk(it.Value(), fmt.Sprintf("%s[%q]", path, it.Key()))
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			if v.Len() == 0 || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type().Elem().Kind() == reflect.Uint8 {
				if inDoc(v.Pointer()) {
					found = append(found, fmt.Sprintf("%s (%d bytes)", path, v.Len()))
				}
				return
			}
			fallthrough
		case reflect.Array:
			switch v.Type().Elem().Kind() {
			case reflect.String, reflect.Pointer, reflect.Map, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array:
				for i := range v.Len() {
					walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
				}
			}
		}
	}
	walk(reflect.ValueOf(root), "")
	return found
}

// TestLibrarianOwnsItsBytes: nothing a librarian keeps — its index terms,
// its text model's tokens, the vocabulary it ships, anything else reachable
// from its manifest — points into the text of a document it was given, so
// dropping the documents frees them. A built, an ingested-into and compacted,
// and a saved and reloaded librarian each hold only bytes of their own.
func TestLibrarianOwnsItsBytes(t *testing.T) {
	docs, _ := parityCorpus(t)
	ctx := context.Background()
	cases := map[string]func(t *testing.T) *Librarian{
		"built": func(t *testing.T) *Librarian {
			lib, err := Build("C", docs, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return lib
		},
		"ingested": func(t *testing.T) *Librarian {
			lib, err := NewUpdatable("C", docs[:100], BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 100; i < len(docs); i += 50 {
				if err := lib.Ingest(ctx, docs[i:min(i+50, len(docs))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := lib.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := lib.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			return lib
		},
		"loaded": func(t *testing.T) *Librarian {
			built, err := Build("C", docs, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := Save(dir, built, SaveOptions{Stopwords: true, Stemming: true}); err != nil {
				t.Fatal(err)
			}
			lib, err := Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			return lib
		},
	}
	inDoc := textSpans(docs)
	for name, open := range cases {
		t.Run(name, func(t *testing.T) {
			lib := open(t)
			defer lib.Close()
			m := lib.man.Load()
			found := aliases(struct {
				Manifest *manifest
				Vocab    any
			}{m, m.vocab()}, inDoc)
			for i, f := range found {
				if i == 5 {
					t.Errorf("... and %d more", len(found)-i)
					break
				}
				t.Errorf("points into a document: %s", f)
			}
		})
	}
}

// heapMB returns the live heap after a collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// retained reports the heap open leaves live once the documents it was given
// are unreachable: what a librarian keeps of them.
func retained(b *testing.B, open func(c *trecsynth.Corpus) []*Librarian) {
	for range b.N {
		before := heapMB()
		libs := func() []*Librarian {
			c, err := trecsynth.Generate(trecsynth.DefaultConfig()) // seed 1998
			if err != nil {
				b.Fatal(err)
			}
			return open(c)
		}()
		b.ReportMetric(heapMB()-before, "MB-retained")
		for _, lib := range libs {
			lib.Close()
		}
	}
}

// BenchmarkRetainedState reports what librarians keep once their documents
// are dropped. build: the scale-1 fleet (four subcollections, 34,800
// documents) built as the benchmark's static workloads build it. ingest: AP
// built from its first 2,000 documents, fed the other 8,400 in 100-document
// batches, flushed and compacted. Run with -benchtime=1x.
func BenchmarkRetainedState(b *testing.B) {
	b.Run("build", func(b *testing.B) {
		retained(b, func(c *trecsynth.Corpus) []*Librarian {
			var libs []*Librarian
			for _, s := range c.Subcollections {
				lib, err := Build(s.Name, s.Docs, BuildOptions{})
				if err != nil {
					b.Fatal(err)
				}
				libs = append(libs, lib)
			}
			return libs
		})
	})
	b.Run("ingest", func(b *testing.B) {
		retained(b, func(c *trecsynth.Corpus) []*Librarian {
			ctx := context.Background()
			docs := c.Subcollections[0].Docs
			lib, err := NewUpdatable("AP", docs[:2000], BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 2000; i < len(docs); i += 100 {
				if err := lib.Ingest(ctx, docs[i:min(i+100, len(docs))]); err != nil {
					b.Fatal(err)
				}
			}
			if err := lib.Flush(ctx); err != nil {
				b.Fatal(err)
			}
			if err := lib.Compact(ctx); err != nil {
				b.Fatal(err)
			}
			return []*Librarian{lib}
		})
	})
}
