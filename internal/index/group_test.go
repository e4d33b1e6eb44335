package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// groupCut indexes docs[cuts[i]:cuts[i+1]] piece by piece and builds the
// index of groups of g documents from the pieces' lists.
func groupCut(t testing.TB, docs [][]string, cuts []int, g uint32, opts ...BuilderOption) (*Index, error) {
	t.Helper()
	var srcs []GroupSource
	for i := 0; i+1 < len(cuts); i++ {
		srcs = append(srcs, buildOver(t, docs[cuts[i]:cuts[i+1]], opts...).Groups(uint32(cuts[i]), g, "", ""))
	}
	return BuildFromGroups(srcs, (uint32(len(docs))+g-1)/g, opts...)
}

// groupDocs concatenates each run of g documents into one.
func groupDocs(docs [][]string, g int) [][]string {
	var out [][]string
	for lo := 0; lo < len(docs); lo += g {
		var grp []string
		for _, d := range docs[lo:min(lo+g, len(docs))] {
			grp = append(grp, d...)
		}
		out = append(out, grp)
	}
	return out
}

// TestBuildFromGroupsMatchesBuilder: however a corpus is cut — pieces that
// straddle group boundaries, pieces inside one group, empty pieces, terms
// absent from some pieces — and whatever the group size, grouping the pieces'
// indexes and folding them serialises to the bytes of one Builder over the
// grouped documents. At G = 1 over one piece that is the piece's own index.
func TestBuildFromGroupsMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for round := 0; round < 40; round++ {
		docs := make([][]string, 1+rng.Intn(120))
		for d := range docs {
			terms := make([]string, rng.Intn(12))
			for i := range terms {
				if rng.Intn(8) == 0 {
					terms[i] = "rare" + strconv.Itoa(rng.Intn(40))
				} else {
					terms[i] = "t" + strconv.Itoa(rng.Intn(25))
				}
			}
			docs[d] = terms
		}
		cuts := []int{0}
		for p, pieces := 1, 1+rng.Intn(6); p < pieces; p++ {
			at := cuts[len(cuts)-1]
			if rng.Intn(3) > 0 { // else an empty piece
				at += rng.Intn(len(docs) - at + 1)
			}
			cuts = append(cuts, at)
		}
		cuts = append(cuts, len(docs))
		g := 1 + rng.Intn(12)
		for _, skip := range []uint32{0, 4} {
			opt := WithSkipInterval(skip)
			ix, err := groupCut(t, docs, cuts, uint32(g), opt)
			if err != nil {
				t.Fatalf("round %d, cuts %v, G=%d: %v", round, cuts, g, err)
			}
			if got, want := serialised(t, ix), serialised(t, buildOver(t, groupDocs(docs, g), opt)); !bytes.Equal(got, want) {
				t.Fatalf("round %d, %d docs cut at %v, G=%d, skip %d: grouped index differs from the direct build",
					round, len(docs), cuts, g, skip)
			}
		}
	}
}

// TestGroupsTermBounds: Groups over [from, to) yields exactly the terms in
// that range, bounds that are not terms included, so ranges cut at any terms
// tile the index, and an empty range yields nothing.
func TestGroupsTermBounds(t *testing.T) {
	ix := buildOver(t, [][]string{{"b", "d", "f"}, {"d", "h"}, {"b", "j"}})
	terms := func(src GroupSource) []string {
		var out []string
		for {
			term, err := src.NextTerm()
			if err != nil {
				t.Fatal(err)
			}
			if term == "" {
				return out
			}
			if _, err := src.AppendGroups(nil); err != nil {
				t.Fatal(err)
			}
			out = append(out, term)
		}
	}
	for _, tc := range []struct {
		from, to string
		want     []string
	}{
		{"", "", []string{"b", "d", "f", "h", "j"}},
		{"", "d", []string{"b"}},
		{"c", "h", []string{"d", "f"}},
		{"d", "g", []string{"d", "f"}},
		{"h", "", []string{"h", "j"}},
		{"f", "f", nil},
		{"g", "c", nil},
		{"k", "", nil},
	} {
		if got := terms(ix.Groups(0, 1, tc.from, tc.to)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("[%q, %q): got %q, want %q", tc.from, tc.to, got, tc.want)
		}
	}
}

// listSource is a GroupSource over fixed lists.
type listSource struct {
	terms []string
	lists [][]Posting
	i     int
}

func (s *listSource) NextTerm() (string, error) {
	if s.i++; s.i > len(s.terms) {
		return "", nil
	}
	return s.terms[s.i-1], nil
}

func (s *listSource) AppendGroups(dst []Posting) ([]Posting, error) {
	return append(dst, s.lists[s.i-1]...), nil
}

// TestBuildFromGroupsMergesSplitLists: a term's list supplied in pieces by
// several sources — one source empty, one lacking the term, two sharing a
// group at their boundary — fuses into one list, the shared group's
// frequencies summed.
func TestBuildFromGroupsMergesSplitLists(t *testing.T) {
	srcs := []GroupSource{
		&listSource{terms: []string{"t"}, lists: [][]Posting{{{Doc: 5, FDT: 3}}}},
		&listSource{},
		&listSource{terms: []string{"t", "u"}, lists: [][]Posting{{{Doc: 5, FDT: 1}, {Doc: 50, FDT: 2}}, {{Doc: 60, FDT: 1}}}},
		&listSource{terms: []string{"u"}, lists: [][]Posting{{{Doc: 61, FDT: 2}}}},
		&listSource{terms: []string{"t"}, lists: [][]Posting{{{Doc: 70, FDT: 1}}}},
	}
	ix, err := BuildFromGroups(srcs, 100)
	if err != nil {
		t.Fatal(err)
	}
	for term, want := range map[string][]Posting{
		"t": {{Doc: 5, FDT: 4}, {Doc: 50, FDT: 2}, {Doc: 70, FDT: 1}},
		"u": {{Doc: 60, FDT: 1}, {Doc: 61, FDT: 2}},
	} {
		c, err := ix.Cursor(term)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merged list = %v, want %v", term, got, want)
		}
	}
}

func TestBuildFromGroupsRejectsBadLists(t *testing.T) {
	for name, lists := range map[string][][]Posting{
		"group outside":  {{{Doc: 4, FDT: 1}}},
		"zero frequency": {{{Doc: 1, FDT: 0}}},
		"descending":     {{{Doc: 2, FDT: 1}}, {{Doc: 1, FDT: 1}}},
	} {
		srcs := make([]GroupSource, len(lists))
		for i, l := range lists {
			srcs[i] = &listSource{terms: []string{"t"}, lists: [][]Posting{l}}
		}
		if _, err := BuildFromGroups(srcs, 4); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestEachTermSumsFrequencies(t *testing.T) {
	a := buildOver(t, [][]string{{"b", "c"}, {"c"}})
	b := buildOver(t, [][]string{{"a", "c"}})
	var got []string
	EachTerm([]*Index{a, b}, func(term string, ft uint32) {
		got = append(got, term+"="+strconv.Itoa(int(ft)))
	})
	if got, want := fmt.Sprint(got), "[a=1 b=1 c=3]"; got != want {
		t.Fatalf("EachTerm = %s, want %s", got, want)
	}
}
