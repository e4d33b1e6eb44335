package selection

import (
	"reflect"
	"testing"
)

// testIndex builds three topically distinct collections: AP holds "alpha"
// heavily, FR holds "federal", WSJ holds "wallstreet"; all three share
// "common".
func testIndex() *Index {
	return New([]Collection{
		{Name: "AP", Docs: 100, DF: map[string]uint32{"alpha": 80, "common": 40, "federal": 2}},
		{Name: "FR", Docs: 100, DF: map[string]uint32{"federal": 75, "common": 35}},
		{Name: "WSJ", Docs: 100, DF: map[string]uint32{"wallstreet": 90, "common": 45, "alpha": 1}},
	})
}

func TestTopRanksTopicalHome(t *testing.T) {
	ix := testIndex()
	cases := []struct {
		terms []string
		want  []int
	}{
		{[]string{"alpha"}, []int{0}},
		{[]string{"federal"}, []int{1}},
		{[]string{"wallstreet"}, []int{2}},
	}
	for _, tc := range cases {
		if got := ix.Top(tc.terms, nil, 1); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Top(%v, nil, 1) = %v, want %v", tc.terms, got, tc.want)
		}
	}
}

func TestTopReturnsAscendingIndexes(t *testing.T) {
	ix := testIndex()
	// "alpha federal" ranks AP and FR above WSJ; the result must come back
	// in ascending index order regardless of score order.
	got := ix.Top([]string{"federal", "alpha"}, nil, 2)
	if want := []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Top = %v, want %v", got, want)
	}
}

func TestTopRZeroAndOversized(t *testing.T) {
	ix := testIndex()
	if got := ix.Top([]string{"alpha"}, nil, 0); got != nil {
		t.Errorf("Top with r=0 = %v, want nil", got)
	}
	if got := ix.Top([]string{"alpha"}, nil, -3); got != nil {
		t.Errorf("Top with r<0 = %v, want nil", got)
	}
	got := ix.Top([]string{"alpha"}, nil, 99)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("Top with r>len = %v, want %v", got, want)
	}
}

func TestTopHonoursCandidates(t *testing.T) {
	ix := testIndex()
	// Restricted to {FR, WSJ}, "alpha" cannot pick AP even though AP would
	// win an unrestricted ranking.
	got := ix.Top([]string{"alpha"}, []int{1, 2}, 1)
	if len(got) != 1 || got[0] == 0 {
		t.Fatalf("Top over candidates {1,2} = %v, must exclude 0", got)
	}
	if got := ix.Top([]string{"alpha"}, []int{}, 1); got != nil {
		t.Errorf("Top over empty candidates = %v, want nil", got)
	}
}

func TestScoreDeterministicUnderTermOrder(t *testing.T) {
	ix := testIndex()
	a := ix.Score([]string{"alpha", "federal", "common", "wallstreet"})
	b := ix.Score([]string{"wallstreet", "common", "federal", "alpha", "alpha"})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Score depends on term order/duplication: %v vs %v", a, b)
	}
}

func TestScoreUnknownTermsFloor(t *testing.T) {
	ix := testIndex()
	scores := ix.Score([]string{"zebra", "quux"})
	for i, s := range scores {
		if s != belief {
			t.Errorf("collection %d scored %v for unknown-only query, want belief floor %v", i, s, belief)
		}
	}
}

func TestTiesBreakByIndex(t *testing.T) {
	// Two identical collections tie exactly; the lower index must win.
	df := map[string]uint32{"term": 10}
	ix := New([]Collection{
		{Name: "B", Docs: 10, DF: df},
		{Name: "A", Docs: 10, DF: df},
	})
	if got := ix.Top([]string{"term"}, nil, 1); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("tie broke to %v, want [0]", got)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := New(nil)
	if got := ix.Top([]string{"alpha"}, nil, 3); got != nil {
		t.Fatalf("empty index selected %v", got)
	}
	if n := len(ix.names); n != 0 {
		t.Fatalf("empty index Len = %d", n)
	}
}

func TestRareTermOutweighsCommonTerm(t *testing.T) {
	ix := testIndex()
	// "federal" appears in 2 collections, "common" in all 3: on a
	// {common, federal} query the federal-heavy collection must still win,
	// because the scaled idf discounts the undiscriminating term.
	got := ix.Top([]string{"common", "federal"}, nil, 1)
	if !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Top(common federal) = %v, want [1] (FR)", got)
	}
}
