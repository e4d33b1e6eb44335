package core

import (
	"errors"
	"net"
	"reflect"
	"testing"

	"teraphim/internal/librarian"
	"teraphim/internal/simnet"
)

// setupAllModes runs every Setup* a fixture needs so each mode (and top-R
// selection) is ready.
func setupAllModes(t *testing.T, f *fixture) {
	t.Helper()
	if _, err := f.recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.recep.SetupCentralIndexRemote(10); err != nil {
		t.Fatal(err)
	}
}

// TestTopROneRoutesToTopicalHome: a query made of one librarian's topical
// terms with TopR=1 contacts exactly that librarian, in CN and CV alike.
func TestTopROneRoutesToTopicalHome(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	setupAllModes(t, f)
	cases := []struct {
		query string
		home  string
	}{
		{"alpha avalanche aurora", "AP"},
		{"federal finance fiscal", "FR"},
		{"wallstreet widget wholesale", "WSJ"},
	}
	for _, mode := range []Mode{ModeCN, ModeCV} {
		for _, tc := range cases {
			res, err := f.recep.Query(mode, tc.query, 10, Options{TopR: 1})
			if err != nil {
				t.Fatalf("%v %q: %v", mode, tc.query, err)
			}
			if res.Trace.LibrariansAsked != 1 || res.Trace.LibrariansSelected != 1 {
				t.Fatalf("%v %q: asked=%d selected=%d, want 1/1",
					mode, tc.query, res.Trace.LibrariansAsked, res.Trace.LibrariansSelected)
			}
			if len(res.Answers) == 0 {
				t.Fatalf("%v %q: no answers from the topical home", mode, tc.query)
			}
			for _, a := range res.Answers {
				if a.Librarian != tc.home {
					t.Fatalf("%v %q: answer from %s, want all from %s", mode, tc.query, a.Librarian, tc.home)
				}
			}
		}
	}
}

// TestTopRRequiresVocabulary: TopR without SetupVocabulary is a typed error
// in every mode — CN included, which otherwise needs no central state.
func TestTopRRequiresVocabulary(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.Query(ModeCN, "alpha", 5, Options{TopR: 1}); !errors.Is(err, ErrSelectionNeedsVocabulary) {
		t.Fatalf("CN TopR before SetupVocabulary: err = %v, want ErrSelectionNeedsVocabulary", err)
	}
	if _, err := f.recep.Federation().SelectLibrarians("alpha", 1); !errors.Is(err, ErrSelectionNeedsVocabulary) {
		t.Fatalf("SelectLibrarians before SetupVocabulary: err = %v, want ErrSelectionNeedsVocabulary", err)
	}
	// Without TopR, CN still needs nothing.
	if _, err := f.recep.Query(ModeCN, "alpha", 5, Options{}); err != nil {
		t.Fatalf("plain CN query: %v", err)
	}
}

// TestSelectLibrariansOrder: the inspection API returns names in
// global-numbering order and honours r = 0 and oversized r.
func TestSelectLibrariansOrder(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	setupAllModes(t, f)
	names, err := f.recep.Federation().SelectLibrarians("alpha federal wallstreet", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, order) {
		t.Fatalf("SelectLibrarians(r=3) = %v, want global order %v", names, order)
	}
	names, err = f.recep.Federation().SelectLibrarians("federal finance", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"FR"}) {
		t.Fatalf("SelectLibrarians(federal, r=1) = %v, want [FR]", names)
	}
	if names, _ := f.recep.Federation().SelectLibrarians("alpha", 0); len(names) != 0 {
		t.Fatalf("SelectLibrarians(r=0) = %v, want empty", names)
	}
	names, err = f.recep.Federation().SelectLibrarians("alpha", 99)
	if err != nil || len(names) != len(order) {
		t.Fatalf("SelectLibrarians(r=99) = %v, %v; want the whole fleet", names, err)
	}
}

// TestTopRCacheKey: the resolved R joins the cache key — different widths
// cache separately (they answer differently), repeats at the same width hit,
// and an oversized R shares the full-fleet entry it clamps to.
func TestTopRCacheKey(t *testing.T) {
	cf := newCacheFixture(t, Config{Cache: &CacheConfig{}})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	const query = "alpha federal"
	r1, err := cf.pool.Query(ModeCV, query, 10, Options{TopR: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := cf.pool.Query(ModeCV, query, 10, Options{TopR: 2}); err != nil {
		t.Fatal(err)
	} else if res.Trace.CacheHit {
		t.Fatal("TopR=2 hit the TopR=1 entry: R missing from the cache key")
	}
	hit, err := cf.pool.Query(ModeCV, query, 10, Options{TopR: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Trace.CacheHit || !sameResult(hit.Answers, r1.Answers) {
		t.Fatal("TopR=1 repeat did not hit its own entry")
	}
	// Clamping: TopR=99 on a 3-librarian fleet resolves to 3 and must share
	// the TopR=3 entry.
	if _, err := cf.pool.Query(ModeCV, query, 10, Options{TopR: 3}); err != nil {
		t.Fatal(err)
	}
	res, err := cf.pool.Query(ModeCV, query, 10, Options{TopR: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.CacheHit {
		t.Fatal("TopR=99 missed the TopR=3 entry: clamping must happen before the key")
	}
}

// TestTopRComposesWithPartialResults: a selected librarian dying mid-session
// degrades the query exactly like full fan-out does — the failure machinery
// applies to the selected set.
func TestTopRComposesWithPartialResults(t *testing.T) {
	corpus, order := smallCorpus(t)
	a := testAnalyzer()
	var libs []*librarian.Librarian
	byName := map[string]*librarian.Librarian{}
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs, lib)
		byName[name] = lib
	}
	inner := librarian.NewInProcessDialer(libs, simnet.LinkConfig{})
	// AP answers its Hello and vocabulary exchanges, then dies for good
	// (redials refused): the rank phase of a TopR query that selected it
	// must fail over per the policy.
	apDials := 0
	dialer := mapDialer{
		"AP": func() (net.Conn, error) {
			apDials++
			if apDials > 1 {
				return nil, errors.New("AP is down")
			}
			return haltAfter(byName["AP"], 2)()
		},
		"FR":  func() (net.Conn, error) { return inner.Dial("FR") },
		"WSJ": func() (net.Conn, error) { return inner.Dial("WSJ") },
	}
	recep, err := NewPool(dialer, order, Config{Analyzer: a})
	if err != nil {
		t.Fatal(err)
	}
	defer recep.Close()
	if _, err := recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	// "alpha federal" with TopR=2 selects AP and FR; AP is dead.
	opts := Options{TopR: 2, MinLibrarians: 1}
	res, err := recep.Query(ModeCN, "alpha federal", 10, opts)
	if err != nil {
		t.Fatalf("partial TopR query: %v", err)
	}
	if !res.Trace.Degraded {
		t.Fatal("dead selected librarian did not degrade the result")
	}
	if res.Trace.LibrariansSelected != 2 {
		t.Fatalf("LibrariansSelected = %d, want 2", res.Trace.LibrariansSelected)
	}
	if got := res.Trace.Failures; len(got) != 1 || got[0].Librarian != "AP" || got[0].Phase != PhaseRank {
		t.Fatalf("failures = %+v, want AP's rank phase", got)
	}
	for _, ans := range res.Answers {
		if ans.Librarian != "FR" {
			t.Fatalf("answer from %s, want survivors (FR) only", ans.Librarian)
		}
	}
	// With MinLibrarians above the surviving count, the same query fails.
	if _, err := recep.Query(ModeCN, "alpha federal", 10, Options{TopR: 2, MinLibrarians: 2}); err == nil {
		t.Fatal("1 survivor of 2 selected with MinLibrarians=2: want error")
	}
}

// TestTopRSelectionMetrics: the selection counter families move with the
// queries and skipped librarians they describe.
func TestTopRSelectionMetrics(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	setupAllModes(t, f)
	m := f.recep.Metrics()
	if got := m.selectionQueries.Value(); got != 0 {
		t.Fatalf("selection queries before any = %d", got)
	}
	if _, err := f.recep.Query(ModeCN, "alpha avalanche", 5, Options{TopR: 1}); err != nil {
		t.Fatal(err)
	}
	if got := m.selectionQueries.Value(); got != 1 {
		t.Fatalf("selection queries = %d, want 1", got)
	}
	if got := m.selectionSkipped.Value(); got != 2 {
		t.Fatalf("selection skipped = %d, want 2 (3 candidates, 1 selected)", got)
	}
	// Full fan-out moves neither counter.
	if _, err := f.recep.Query(ModeCN, "alpha avalanche", 5, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := m.selectionQueries.Value(); got != 1 {
		t.Fatalf("full fan-out bumped selection queries to %d", got)
	}
}
