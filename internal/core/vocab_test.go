package core

import (
	"reflect"
	"testing"

	"teraphim/internal/intern"
	"teraphim/internal/librarian"
)

// countMaps counts the distinct maps and term tables reachable from v.
func countMaps(v reflect.Value, seen map[uintptr]bool) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer, reflect.Map:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		if v.Type() == reflect.TypeOf((*intern.Table)(nil)) {
			return 1
		}
		if v.Kind() == reflect.Pointer {
			return countMaps(v.Elem(), seen)
		}
		n = 1
		for it := v.MapRange(); it.Next(); {
			n += countMaps(it.Value(), seen)
		}
	case reflect.Interface:
		if !v.IsNil() {
			n = countMaps(v.Elem(), seen)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += countMaps(v.Field(i), seen)
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Map, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				n += countMaps(v.Index(i), seen)
			}
		}
	}
	return n
}

// TestSetupVocabularyKeepsOneTermMap: the merged vocabulary is one table —
// one term table over rows holding each term's global f_t, its collection
// frequency and every librarian's f_t, which the selection index reads too —
// not a map per librarian beside a global one and selection's own. Every
// row agrees with the librarians' dictionaries.
func TestSetupVocabularyKeepsOneTermMap(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	vs := f.recep.Federation().vocab.Load()
	if n := countMaps(reflect.ValueOf(vs), map[uintptr]bool{}); n != 1 {
		t.Fatalf("the installed vocabulary holds %d maps and term tables, want one term table", n)
	}
	want := map[string][]uint32{}
	for i, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: testAnalyzer()})
		if err != nil {
			t.Fatal(err)
		}
		lib.Engine().Index().Terms(func(term string, ft uint32) bool {
			if want[term] == nil {
				want[term] = make([]uint32, 2+len(order))
			}
			want[term][0] += ft
			want[term][1]++
			want[term][2+i] = ft
			return true
		})
	}
	if terms, _ := vs.vocab.Len(); terms != len(want) {
		t.Fatalf("table holds %d terms, the librarians %d", terms, len(want))
	}
	for term, row := range want {
		if got := vs.vocab.Row(term); !reflect.DeepEqual(got, row) {
			t.Fatalf("row of %q = %v, want %v", term, got, row)
		}
	}
}
