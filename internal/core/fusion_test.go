package core

import (
	"errors"
	"reflect"
	"testing"
)

func answerList(name string, offset uint32, scores ...float64) []Answer {
	out := make([]Answer, len(scores))
	for i, s := range scores {
		out[i] = Answer{Librarian: name, LocalDoc: uint32(i), GlobalDoc: offset + uint32(i), Score: s}
	}
	return out
}

func keysOf(answers []Answer) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = a.Key()
	}
	return out
}

func TestFuseFaceValue(t *testing.T) {
	lists := map[string][]Answer{
		"A": answerList("A", 0, 0.9, 0.3),
		"B": answerList("B", 100, 0.7, 0.5),
	}
	got := fuse(MergeFaceValue, lists, []string{"A", "B"}, 3)
	want := []string{"A:0", "B:0", "B:1"}
	if !reflect.DeepEqual(keysOf(got), want) {
		t.Fatalf("face value = %v, want %v", keysOf(got), want)
	}
}

func TestFuseFaceValueTieBreak(t *testing.T) {
	lists := map[string][]Answer{
		"A": answerList("A", 100, 0.5),
		"B": answerList("B", 0, 0.5),
	}
	got := fuse(MergeFaceValue, lists, []string{"A", "B"}, 2)
	// Equal scores break toward the lower global doc (B at offset 0).
	if got[0].Librarian != "B" {
		t.Fatalf("tie break wrong: %v", keysOf(got))
	}
}

func TestFuseRoundRobin(t *testing.T) {
	lists := map[string][]Answer{
		"A": answerList("A", 0, 0.2, 0.1), // low scores...
		"B": answerList("B", 100, 0.9),
	}
	got := fuse(MergeRoundRobin, lists, []string{"A", "B"}, 3)
	// Round robin ignores scores: A's first, B's first, A's second.
	want := []string{"A:0", "B:0", "A:1"}
	if !reflect.DeepEqual(keysOf(got), want) {
		t.Fatalf("round robin = %v, want %v", keysOf(got), want)
	}
}

func TestFuseRoundRobinExhaustsShortLists(t *testing.T) {
	lists := map[string][]Answer{
		"A": answerList("A", 0, 0.9),
		"B": answerList("B", 100, 0.8, 0.7, 0.6),
	}
	got := fuse(MergeRoundRobin, lists, []string{"A", "B"}, 10)
	want := []string{"A:0", "B:0", "B:1", "B:2"}
	if !reflect.DeepEqual(keysOf(got), want) {
		t.Fatalf("round robin = %v, want %v", keysOf(got), want)
	}
}

func TestFuseNormalized(t *testing.T) {
	// Librarian A's scores are inflated 10x; min-max normalisation should
	// put both on the same scale, so B's best beats A's second.
	lists := map[string][]Answer{
		"A": answerList("A", 0, 10.0, 5.0, 2.0),
		"B": answerList("B", 100, 1.0, 0.5, 0.2),
	}
	got := fuse(MergeNormalized, lists, []string{"A", "B"}, 4)
	// Normalised: A = 1.0, 0.375, 0.0; B = 1.0, 0.375, 0.0.
	// Ties break by global doc: A:0, B:0, A:1, B:1.
	want := []string{"A:0", "B:0", "A:1", "B:1"}
	if !reflect.DeepEqual(keysOf(got), want) {
		t.Fatalf("normalized = %v, want %v", keysOf(got), want)
	}
}

func TestNormalizeSingleAnswer(t *testing.T) {
	lists := normalizeLists(map[string][]Answer{
		"A": answerList("A", 0, 42.0),
		"B": nil,
	})
	if lists["A"][0].Score != 1 {
		t.Fatalf("single answer normalised to %f, want 1", lists["A"][0].Score)
	}
	if lists["B"] != nil {
		t.Fatal("empty list must stay empty")
	}
}

func TestMergeStrategyString(t *testing.T) {
	for s, want := range map[MergeStrategy]string{
		MergeFaceValue:  "face-value",
		MergeRoundRobin: "round-robin",
		MergeNormalized: "normalized",
	} {
		if s.String() != want {
			t.Errorf("String(%d) = %s", int(s), s)
		}
	}
}

func TestFuseAllEmptyLists(t *testing.T) {
	empty := map[string][]Answer{"A": nil, "B": {}, "C": nil}
	for _, strategy := range []MergeStrategy{MergeFaceValue, MergeRoundRobin, MergeNormalized} {
		if got := fuse(strategy, empty, []string{"A", "B", "C"}, 10); len(got) != 0 {
			t.Fatalf("%v over empty lists returned %v", strategy, keysOf(got))
		}
		if got := fuse(strategy, map[string][]Answer{}, nil, 10); len(got) != 0 {
			t.Fatalf("%v over no lists returned %v", strategy, keysOf(got))
		}
	}
}

func TestFuseKLargerThanTotal(t *testing.T) {
	lists := map[string][]Answer{
		"A": answerList("A", 0, 0.9, 0.3),
		"B": answerList("B", 100, 0.7),
	}
	for _, strategy := range []MergeStrategy{MergeFaceValue, MergeRoundRobin, MergeNormalized} {
		got := fuse(strategy, lists, []string{"A", "B"}, 50)
		if len(got) != 3 {
			t.Fatalf("%v with k=50 over 3 candidates returned %d", strategy, len(got))
		}
	}
}

// TestFuseNoHiddenCapacity pins the clipAnswers fix: a truncated merge must
// not keep dropped candidates alive in spare capacity, where a caller's
// append would resurrect (or a cache-sharing caller's append would corrupt)
// them.
func TestFuseNoHiddenCapacity(t *testing.T) {
	lists := map[string][]Answer{
		"A": answerList("A", 0, 0.9, 0.8, 0.7, 0.6, 0.5),
		"B": answerList("B", 100, 0.95, 0.85, 0.75),
	}
	for _, strategy := range []MergeStrategy{MergeFaceValue, MergeRoundRobin, MergeNormalized} {
		got := fuse(strategy, lists, []string{"A", "B"}, 3)
		if len(got) != 3 {
			t.Fatalf("%v returned %d answers, want 3", strategy, len(got))
		}
		if cap(got) != len(got) {
			t.Fatalf("%v returned len %d cap %d: dropped candidates retained in hidden capacity",
				strategy, len(got), cap(got))
		}
	}
}

// TestFuseConstantScoresDeterministic: when every candidate scores the same,
// the winner set must not depend on Go's randomized map iteration order. 50
// freshly built maps over 8 librarians must fuse identically.
func TestFuseConstantScoresDeterministic(t *testing.T) {
	names := []string{"L0", "L1", "L2", "L3", "L4", "L5", "L6", "L7"}
	build := func() map[string][]Answer {
		lists := make(map[string][]Answer, len(names))
		for i, name := range names {
			lists[name] = answerList(name, uint32(i*100), 0.5, 0.5, 0.5)
		}
		return lists
	}
	for _, strategy := range []MergeStrategy{MergeFaceValue, MergeRoundRobin, MergeNormalized} {
		want := keysOf(fuse(strategy, build(), names, 5))
		for round := 0; round < 50; round++ {
			got := keysOf(fuse(strategy, build(), names, 5))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v round %d: %v, want %v (map-order dependent)", strategy, round, got, want)
			}
		}
	}
}

// TestNormalizeConstantScores: a list where min == max maps every score to
// 1 rather than dividing by zero.
func TestNormalizeConstantScores(t *testing.T) {
	lists := normalizeLists(map[string][]Answer{
		"A": answerList("A", 0, 3.0, 3.0, 3.0),
	})
	for i, a := range lists["A"] {
		if a.Score != 1 {
			t.Fatalf("constant-score answer %d normalised to %f, want 1", i, a.Score)
		}
	}
}

func TestEffectiveMerge(t *testing.T) {
	cases := []struct {
		mode Mode
		opts Options
		want MergeStrategy
	}{
		{ModeCN, Options{}, MergeFaceValue},
		{ModeCN, Options{Merge: MergeFaceValue}, MergeFaceValue},
		{ModeCN, Options{Merge: MergeRoundRobin}, MergeRoundRobin},
		{ModeCN, Options{Merge: MergeNormalized}, MergeNormalized},
		{ModeCV, Options{Merge: MergeRoundRobin}, MergeFaceValue},
		{ModeCI, Options{Merge: MergeNormalized}, MergeFaceValue},
	}
	for _, tc := range cases {
		p, err := resolve(&Federation{}, tc.mode, 10, tc.opts)
		if err != nil {
			t.Errorf("resolve(%v, Merge=%v): %v", tc.mode, tc.opts.Merge, err)
			continue
		}
		if p.merge != tc.want {
			t.Errorf("resolve(%v, Merge=%v).merge = %v, want %v", tc.mode, tc.opts.Merge, p.merge, tc.want)
		}
	}
}

// TestEffectiveMergeRejectsUnknown: a Merge value naming no defined strategy
// is a typed error in every mode — never silently face value, never a
// cache-key fragment.
func TestEffectiveMergeRejectsUnknown(t *testing.T) {
	for _, mode := range []Mode{ModeCN, ModeCV, ModeCI} {
		for _, bad := range []MergeStrategy{MergeStrategy(42), MergeStrategy(-1), MergeStrategy(4)} {
			_, err := resolve(&Federation{}, mode, 10, Options{Merge: bad})
			if !errors.Is(err, ErrUnknownMergeStrategy) {
				t.Errorf("resolve(%v, Merge=%v) err = %v, want ErrUnknownMergeStrategy", mode, bad, err)
			}
		}
	}
}

func TestCNWithFusionStrategies(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	for _, strategy := range []MergeStrategy{MergeFaceValue, MergeRoundRobin, MergeNormalized} {
		res, err := f.recep.Query(ModeCN, "alpha federal wallstreet", 9, Options{Merge: strategy})
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("%v returned nothing", strategy)
		}
		seen := map[string]bool{}
		for _, a := range res.Answers {
			if seen[a.Key()] {
				t.Fatalf("%v returned duplicate %s", strategy, a.Key())
			}
			seen[a.Key()] = true
		}
	}
	// Round robin must draw its first S answers from distinct librarians
	// when every librarian has answers.
	res, err := f.recep.Query(ModeCN, "alpha federal wallstreet", 9, Options{Merge: MergeRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	libs := map[string]bool{}
	for _, a := range res.Answers[:3] {
		libs[a.Librarian] = true
	}
	if len(libs) != 3 {
		t.Fatalf("round robin first 3 answers from %d librarians", len(libs))
	}
}
