package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/oracle"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
)

// The paper's invariants are equalities with a reference: CV scores are
// those of a mono-server, CI scores exactly the documents its grouped index
// nominates, and pruning, segments, batching, two-round fetch, replicas and
// R = all selection are transports that change no answer. TestOracle holds
// every answer the receptionist gives, under every one of those settings,
// against internal/oracle's brute-force cosine over the raw text.

// oracleSeeds is how many random federations TestOracle draws, and
// oracleTrials how many configurations it runs on each.
const (
	oracleSeeds  = 16
	oracleTrials = 48
)

// oracleAxes are the settings a trial draws, each with its values. Value 0
// of every axis but mode is the plain configuration.
var oracleAxes = [...]struct {
	name   string
	values []string
}{
	{"mode", []string{"CN", "CV", "CI", "CI k'=2"}},
	{"evaluator", []string{"exact", "maxscore", "wand"}},
	{"topR", []string{"0", "all"}},
	{"fetch", []string{"off", "plain", "compressed"}},
	{"batch", []string{"0", "2ms"}},
	{"twoRound", []string{"off", "on"}},
	{"segments", []string{"1", "2", "5"}},
	{"replicas", []string{"1", "2 hedged", "2 #0 killed"}},
}

// Indices into oracleAxes.
const (
	axMode = iota
	axEval
	axTopR
	axFetch
	axBatch
	axTwoRound
	axSegments
	axReplicas
)

// oracleTrial is one configuration: an index into each axis's values.
type oracleTrial [len(oracleAxes)]int

func (tr oracleTrial) String() string {
	var b strings.Builder
	for ax, v := range tr {
		fmt.Fprintf(&b, "%s=%s ", oracleAxes[ax].name, oracleAxes[ax].values[v])
	}
	return strings.TrimSpace(b.String())
}

func (tr oracleTrial) mode() Mode { return []Mode{ModeCN, ModeCV, ModeCI, ModeCI}[tr[axMode]] }

// oracleCorpus is a federation as the oracle sees it: its documents, by
// librarian and in global order, its CI group size, and its MS baseline.
type oracleCorpus struct {
	docs      map[string][]store.Document
	order     []string
	offset    map[string]int
	terms     [][]string // every document's analysed terms, in global order
	groupSize int        // the CI group size G
	mono      *MonoServer
}

type oracleQuery struct {
	text string
	k    int
}

// newOracleCorpus draws 2–4 librarians of 5–20 documents over a small,
// skewed vocabulary, with one-term documents and exact duplicates (so scores
// tie exactly), sometimes a last librarian that copies the first (so CN's
// local scores tie across librarians), a group size G of 2–5, and three
// queries with repeated and absent terms.
func newOracleCorpus(t testing.TB, rng *rand.Rand) (*oracleCorpus, []oracleQuery) {
	docs := map[string][]store.Document{}
	var order []string
	groupSize := 2 + rng.Intn(4)
	vocab := 3 + rng.Intn(10)
	word := func() string { return "w" + strconv.Itoa(int(math.Pow(rng.Float64(), 2)*float64(vocab))) }
	nlib := 2 + rng.Intn(3)
	for l := 0; l < nlib; l++ {
		name := "L" + strconv.Itoa(l)
		copyFirst := l > 0 && l == nlib-1 && rng.Intn(3) == 0
		n := 5 + rng.Intn(16)
		if copyFirst {
			n = len(docs[order[0]])
		}
		lib := make([]store.Document, n)
		for d := range lib {
			var text string
			switch {
			case copyFirst:
				text = docs[order[0]][d].Text
			case d > 0 && rng.Intn(6) == 0:
				text = lib[rng.Intn(d)].Text
			case rng.Intn(5) == 0:
				text = word()
			default:
				w := make([]string, 2+rng.Intn(10))
				for i := range w {
					w[i] = word()
				}
				text = strings.Join(w, " ")
			}
			lib[d] = store.Document{ID: uint32(d), Title: name + "-" + strconv.Itoa(d), Text: text}
		}
		order = append(order, name)
		docs[name] = lib
	}
	c := newOracleFederation(t, docs, order, groupSize)
	queries := make([]oracleQuery, 3)
	for i := range queries {
		w := make([]string, 1+rng.Intn(4))
		for j := range w {
			w[j] = word()
		}
		if rng.Intn(3) == 0 {
			w = append(w, w[0])
		}
		if rng.Intn(4) == 0 {
			w = append(w, "absent")
		}
		k := 1 + rng.Intn(len(c.terms)+2)
		if rng.Intn(2) == 0 {
			k = 1 + rng.Intn(5)
		}
		queries[i] = oracleQuery{strings.Join(w, " "), k}
	}
	return c, queries
}

// newOracleFederation describes the federation of docs, its librarians in
// order, whose CI set-up groups groupSize documents.
func newOracleFederation(t testing.TB, docs map[string][]store.Document, order []string, groupSize int) *oracleCorpus {
	t.Helper()
	c := &oracleCorpus{docs: docs, order: order, offset: map[string]int{}, groupSize: groupSize}
	c.mono, c.terms = newMono(t, docs, order)
	n := 0
	for _, name := range order {
		c.offset[name] = n
		n += len(docs[name])
	}
	return c
}

// want returns the oracle's score for every document, by global id, as mode
// scores it with k' groups expanded, and whether CI's cut between the k'-th
// and the (k'+1)-th group is within 1e-9, too close for the oracle to call.
func (c *oracleCorpus) want(mode Mode, kPrime int, query string) ([]float64, bool) {
	q := testAnalyzer().Terms(nil, query)
	if mode == ModeCN {
		// Every librarian scores with its own statistics.
		var scores []float64
		for _, name := range c.order {
			lo := c.offset[name]
			scores = append(scores, oracle.Scores(c.terms[lo:lo+len(c.docs[name])], q)...)
		}
		return scores, false
	}
	scores := oracle.Scores(c.terms, q)
	if mode != ModeCI {
		return scores, false
	}
	// CI ranks groups of G adjacent documents as if each were one document,
	// best first and ties by ascending group, and scores only the documents
	// of the k' best.
	var groups [][]string
	for lo := 0; lo < len(c.terms); lo += c.groupSize {
		var g []string
		for _, terms := range c.terms[lo:min(lo+c.groupSize, len(c.terms))] {
			g = append(g, terms...)
		}
		groups = append(groups, g)
	}
	gs := oracle.Scores(groups, q)
	var best []int
	for g, s := range gs {
		if s > 0 {
			best = append(best, g)
		}
	}
	sort.SliceStable(best, func(i, j int) bool { return gs[best[i]] > gs[best[j]] })
	ambiguous := len(best) > kPrime && gs[best[kPrime-1]]-gs[best[kPrime]] <= 1e-9
	kept := make([]bool, len(groups))
	for _, g := range best[:min(kPrime, len(best))] {
		kept[g] = true
	}
	for d := range scores {
		if !kept[d/c.groupSize] {
			scores[d] = 0
		}
	}
	return scores, ambiguous
}

// check holds answers against the oracle's scores by global id. Documents
// whose scores are mathematically tied come out an ULP apart, in the
// receptionist and in the oracle independently, so documents are not
// compared rank by rank. Instead: there are min(k, matching) answers, rank i
// holds the oracle's i-th best score, that score is the oracle's score for
// the document holding it, the order is score-descending with exact ties by
// ascending global id, and each answer's librarian and local id name its
// global id. It returns "" when the answers hold.
func (c *oracleCorpus) check(answers []Answer, want []float64, k int) string {
	var best []float64
	for _, s := range want {
		if s > 0 {
			best = append(best, s)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(best)))
	if len(answers) != min(k, len(best)) {
		return fmt.Sprintf("%d answers, the oracle has %d of %d matching", len(answers), min(k, len(best)), len(best))
	}
	for i, a := range answers {
		g := int(a.GlobalDoc)
		if g >= len(want) || math.Abs(a.Score-want[g]) > 1e-9 || math.Abs(a.Score-best[i]) > 1e-9 {
			return fmt.Sprintf("rank %d is %s (global %d) at %.17g; the oracle's rank %d scores %.17g", i, a.Key(), g, a.Score, i, best[i])
		}
		if off, ok := c.offset[a.Librarian]; !ok || off+int(a.LocalDoc) != g {
			return fmt.Sprintf("rank %d: %s is not global document %d", i, a.Key(), g)
		}
		if i > 0 && (answers[i-1].Score < a.Score || answers[i-1].Score == a.Score && answers[i-1].GlobalDoc >= a.GlobalDoc) {
			return fmt.Sprintf("ranks %d and %d out of order: %s %.17g, %s %.17g", i-1, i, answers[i-1].Key(), answers[i-1].Score, a.Key(), a.Score)
		}
	}
	return ""
}

// sameAnswers compares answers by librarian, local id, global id and score,
// all with ==.
func sameAnswers(got, want []Answer) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d answers, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Librarian != w.Librarian || g.LocalDoc != w.LocalDoc || g.GlobalDoc != w.GlobalDoc || g.Score != w.Score {
			return fmt.Sprintf("rank %d is %s (global %d) at %.17g, want %s (global %d) at %.17g",
				i, g.Key(), g.GlobalDoc, g.Score, w.Key(), w.GlobalDoc, w.Score)
		}
	}
	return ""
}

// fetched checks that each answer carries its document's title and text when
// the query fetched, and nothing when it did not.
func (c *oracleCorpus) fetched(answers []Answer, fetch bool) string {
	for i, a := range answers {
		doc := c.docs[a.Librarian][a.LocalDoc]
		if !fetch {
			doc = store.Document{}
		}
		if a.Title != doc.Title || a.Text != doc.Text {
			return fmt.Sprintf("rank %d (%s): title %q and %d bytes of text, want %q and %d", i, a.Key(), a.Title, len(a.Text), doc.Title, len(doc.Text))
		}
	}
	return ""
}

// traceFaults checks what a trial's settings promise about its trace: a
// two-round fetch piggy-backs nothing and sends one fetch exchange to each
// librarian holding answers, hedges happen only when asked for and are never
// recorded as failures, R = all selects every librarian asked, and every
// call names one of its librarian's endpoints.
func traceFaults(tr oracleTrial, tt *Trace, answers []Answer) string {
	if tr[axTwoRound] == 1 && tr[axFetch] > 0 {
		// Hedges and attempts on a killed #0 are extra exchanges, not extra
		// fetches; a primary that loses its hedge race while still dialling
		// records no exchange at all.
		fetches, hedges := 0, 0
		for _, c := range tt.Calls {
			switch {
			case c.Phase != PhaseFetch || tr[axReplicas] == 2 && strings.HasSuffix(c.Replica, "#0"):
			case c.Hedge:
				hedges++
			default:
				fetches++
			}
		}
		exchanges := fetches == tt.FallbackFetches ||
			tr[axReplicas] == 1 && fetches < tt.FallbackFetches && fetches+hedges >= tt.FallbackFetches
		if tt.PiggybackedDocs != 0 || tt.FallbackFetches != answerLibrarians(answers) || !exchanges {
			return fmt.Sprintf("two-round fetch: %d answers piggy-backed, %d fallback fetches in %d exchanges (%d of them fetches, %d hedges) for answers at %d librarians",
				tt.PiggybackedDocs, tt.FallbackFetches, tt.RoundTrips(PhaseFetch), fetches, hedges, answerLibrarians(answers))
		}
	}
	if tt.HedgeWins > tt.Hedges || tr[axReplicas] != 1 && tt.Hedges != 0 || tr[axReplicas] != 2 && len(tt.Failures) != 0 {
		return fmt.Sprintf("%d hedges launched, %d won, failures %+v", tt.Hedges, tt.HedgeWins, tt.Failures)
	}
	if selected := []int{0, tt.LibrariansAsked}[tr[axTopR]]; tt.LibrariansSelected != selected {
		return fmt.Sprintf("%d librarians selected, %d asked", tt.LibrariansSelected, tt.LibrariansAsked)
	}
	for _, c := range tt.Calls {
		if c.Replica != c.Librarian && !strings.HasPrefix(c.Replica, c.Librarian+"#") {
			return fmt.Sprintf("a call to %s was served by %q", c.Librarian, c.Replica)
		}
	}
	return ""
}

// options are the query options a trial sets.
func (c *oracleCorpus) options(tr oracleTrial) Options {
	opts := Options{
		Evaluator:          []search.Evaluator{search.EvalExact, search.EvalMaxScore, search.EvalWAND}[tr[axEval]],
		Fetch:              tr[axFetch] > 0,
		CompressedTransfer: tr[axFetch] == 2,
	}
	switch tr[axMode] {
	case 2:
		opts.KPrime = (len(c.terms) + c.groupSize - 1) / c.groupSize
	case 3:
		opts.KPrime = 2
	}
	if tr[axTopR] == 1 {
		opts.TopR = len(c.order)
	}
	if tr[axBatch] == 1 {
		opts.BatchWindow = 2 * time.Millisecond
	}
	switch tr[axReplicas] {
	case 1:
		opts.HedgeAfter = 0.5
	case 2:
		opts.Retries, opts.Backoff = 2, time.Millisecond
	}
	return opts
}

// pool connects a receptionist to libs — unreplicated when endpoints is 0,
// else through that many replicas a librarian, named name#0, name#1, … —
// and runs every set-up exchange. kill then kills every librarian's #0;
// a replicated pool that is not killed runs hedgeMinSamples queries one at a
// time first, so every librarian's latency tracker can hedge.
func (c *oracleCorpus) pool(t *testing.T, libs map[string]*librarian.Librarian, endpoints int, kill, twoRound bool) *Pool {
	t.Helper()
	dialer := librarian.NewInProcessDialer(nil, simnet.LinkConfig{})
	cfg := Config{Analyzer: testAnalyzer(), TwoRoundFetch: twoRound}
	if endpoints > 0 {
		cfg.Replicas = map[string][]string{}
	}
	for _, name := range c.order {
		if endpoints == 0 {
			dialer.AddEndpoint(name, libs[name], simnet.LinkConfig{})
			continue
		}
		for i := 0; i < endpoints; i++ {
			ep := name + "#" + strconv.Itoa(i)
			dialer.AddEndpoint(ep, libs[name], simnet.LinkConfig{})
			cfg.Replicas[name] = append(cfg.Replicas[name], ep)
		}
	}
	chaos := simnet.NewChaos(dialer)
	p, err := NewPool(chaos, c.order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		dialer.Wait()
	})
	if _, err := p.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SetupModels(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SetupCentralIndexRemote(c.groupSize); err != nil {
		t.Fatal(err)
	}
	switch {
	case kill:
		for _, name := range c.order {
			chaos.Kill(name + "#0")
		}
	case endpoints > 1:
		for i := 0; i < hedgeMinSamples; i++ {
			if _, err := p.Query(ModeCN, "w0", 1, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range c.order {
			if n := p.routers[name].latency.count.Load(); n < hedgeMinSamples {
				t.Fatalf("%s's latency tracker saw %d exchanges, fewer than the %d hedging needs", name, n, hedgeMinSamples)
			}
		}
	}
	return p
}

// oraclePoolKey names the pool a trial runs on: its segment count, replicas
// and two-round fetch values.
type oraclePoolKey struct{ segments, replicas, twoRound int }

// oracleRun is one seed's federation, its queries, and what its trials saw.
type oracleRun struct {
	c         *oracleCorpus
	queries   []oracleQuery
	pools     map[oraclePoolKey]*Pool
	covered   map[[4]int]bool // {axis a, value of a, axis b, value of b}, a < b
	maxBatch  int             // the largest BatchSize a batched trial's call saw
	hedges    int             // hedges the hedged trials launched
	cutTrials int             // CI k'=2 queries run
	cutSkips  int             // of those, the ones too close to call
}

// runOracle draws seed's federation and queries, then the trials draw gives
// it from the same generator, runs every trial on every query, all at once
// so batched queries find one another inside their window, and holds each
// answer as TestOracle describes. A failure names the seed, G and the
// trial's whole configuration.
func runOracle(t *testing.T, seed int64, draw func(*rand.Rand) []oracleTrial) *oracleRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, queries := newOracleCorpus(t, rng)
	trials := draw(rng)
	run := &oracleRun{c: c, queries: queries, pools: map[oraclePoolKey]*Pool{}, covered: map[[4]int]bool{}}

	// One fleet per segment count, one pool per (segments, replicas,
	// two-round), made before any query runs.
	fleets := map[int]map[string]*librarian.Librarian{}
	poolFor := func(tr oracleTrial) *Pool {
		key := oraclePoolKey{tr[axSegments], tr[axReplicas], tr[axTwoRound]}
		if run.pools[key] == nil {
			if fleets[key.segments] == nil {
				_, fleets[key.segments] = newSegmentedDialer(t, c.docs, c.order, []int{1, 2, 5}[key.segments])
			}
			run.pools[key] = c.pool(t, fleets[key.segments], []int{0, 2, 2}[key.replicas], key.replicas == 2, key.twoRound == 1)
		}
		return run.pools[key]
	}
	for _, tr := range trials {
		poolFor(tr)
	}

	// The references: the oracle, the plain configuration, and MS.
	type ref struct {
		want      []float64
		ambiguous bool
		plain, ms []Answer
	}
	refs := make([][]ref, len(oracleAxes[axMode].values))
	for m := range refs {
		plain := oracleTrial{axMode: m}
		for _, q := range queries {
			var r ref
			r.want, r.ambiguous = c.want(plain.mode(), c.options(plain).KPrime, q.text)
			res, err := poolFor(plain).Query(plain.mode(), q.text, q.k, c.options(plain))
			if err != nil {
				t.Fatalf("seed=%d %v query %q k=%d: %v", seed, plain, q.text, q.k, err)
			}
			r.plain = res.Answers
			if m == 1 || m == 2 {
				ms, err := c.mono.Query(q.text, q.k, Options{})
				if err != nil {
					t.Fatalf("seed=%d MS query %q k=%d: %v", seed, q.text, q.k, err)
				}
				r.ms = ms.Answers
			}
			refs[m] = append(refs[m], r)
		}
	}

	type outcome struct {
		res *Result
		err error
	}
	outcomes := make([][]outcome, len(trials))
	var wg sync.WaitGroup
	for i, tr := range trials {
		outcomes[i] = make([]outcome, len(queries))
		for qi, q := range queries {
			wg.Add(1)
			go func(i, qi int, tr oracleTrial, q oracleQuery) {
				defer wg.Done()
				res, err := poolFor(tr).Query(tr.mode(), q.text, q.k, c.options(tr))
				outcomes[i][qi] = outcome{res, err}
			}(i, qi, tr, q)
		}
	}
	wg.Wait()

	for i, tr := range trials {
		for qi, q := range queries {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed=%d G=%d %v query %q k=%d: %s", seed, c.groupSize, tr, q.text, q.k, fmt.Sprintf(format, args...))
			}
			out, r := outcomes[i][qi], refs[tr[axMode]][qi]
			if out.err != nil {
				fail("%v", out.err)
			}
			answers := out.res.Answers
			if tr[axMode] == 3 {
				run.cutTrials++
				if r.ambiguous {
					run.cutSkips++
					continue
				}
			}
			if msg := c.check(answers, r.want, q.k); msg != "" {
				fail("against the oracle: %s", msg)
			}
			if msg := sameAnswers(answers, r.plain); msg != "" {
				fail("against the plain configuration: %s", msg)
			}
			if r.ms != nil {
				if msg := sameAnswers(answers, r.ms); msg != "" {
					fail("against MS: %s", msg)
				}
			}
			if msg := c.fetched(answers, tr[axFetch] > 0); msg != "" {
				fail("%s", msg)
			}
			if msg := traceFaults(tr, &out.res.Trace, answers); msg != "" {
				fail("%s", msg)
			}
			if tr[axReplicas] == 1 {
				run.hedges += out.res.Trace.Hedges
			}
			if tr[axBatch] == 1 {
				for _, call := range out.res.Trace.Calls {
					run.maxBatch = max(run.maxBatch, call.BatchSize)
				}
			}
			for a := range tr {
				for b := a + 1; b < len(tr); b++ {
					run.covered[[4]int{a, tr[a], b, tr[b]}] = true
				}
			}
		}
	}
	for _, p := range run.pools {
		assertNoLeakedConns(t, p)
	}
	return run
}

// TestOracle crosses mode, evaluator, TopR, fetch, batch window, two-round
// fetch, segment count and replicas on random federations. Every answer must
// hold the oracle's ranking, be == to the same seed's plain configuration
// (one segment, one replica, exact, nothing else set), be == to the MS
// baseline in CV and covering CI, and carry its document when fetched. Once
// every seed has run, every pair of axis values must have run, batched
// queries must have shared a frame, and at most 5 % of CI k' = 2 queries may
// have been skipped as too close to call. A failure names its seed and
// configuration; -run 'TestOracle/seed=N' reruns that seed alone.
func TestOracle(t *testing.T) {
	var (
		covered   = map[[4]int]bool{}
		seeds     int
		maxBatch  int
		hedges    int
		cutTrials int
		cutSkips  int
	)
	draw := func(rng *rand.Rand) []oracleTrial {
		trials := make([]oracleTrial, oracleTrials)
		for i := range trials {
			for ax := range trials[i] {
				trials[i][ax] = rng.Intn(len(oracleAxes[ax].values))
			}
		}
		return trials
	}
	for seed := int64(1); seed <= oracleSeeds; seed++ {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			seeds++
			run := runOracle(t, seed, draw)
			for pair := range run.covered {
				covered[pair] = true
			}
			maxBatch = max(maxBatch, run.maxBatch)
			hedges += run.hedges
			cutTrials += run.cutTrials
			cutSkips += run.cutSkips
		})
	}
	if seeds < oracleSeeds || t.Failed() {
		return // a -run filter left seeds out, or a seed already failed
	}
	for a := range oracleAxes {
		for b := a + 1; b < len(oracleAxes); b++ {
			for va, na := range oracleAxes[a].values {
				for vb, nb := range oracleAxes[b].values {
					if !covered[[4]int{a, va, b, vb}] {
						t.Errorf("no trial ran %s=%s with %s=%s", oracleAxes[a].name, na, oracleAxes[b].name, nb)
					}
				}
			}
		}
	}
	if maxBatch < 2 {
		t.Errorf("batched queries never shared a frame (largest batch %d)", maxBatch)
	}
	if hedges == 0 {
		t.Error("hedged queries never launched a hedge")
	}
	if cutSkips*20 > cutTrials {
		t.Errorf("%d of %d CI k'=2 queries skipped as too close to call, more than 5%%", cutSkips, cutTrials)
	}
}

// The tests below each pin one of the paper's invariants, or one transport,
// as a fixed slice of TestOracle's cross product: every combination of the
// named axis values, every other axis plain, on the first sliceSeeds of its
// federations, each answer held exactly as TestOracle holds it.

const sliceSeeds = 4

// allModes is every value of the mode axis.
var allModes = []int{0, 1, 2, 3}

// crossTrials is every trial setting each axis in axes to each of its
// values, in every combination, and every other axis to its plain value.
func crossTrials(axes map[int][]int) []oracleTrial {
	trials := []oracleTrial{{}}
	for ax := range oracleAxes {
		values, ok := axes[ax]
		if !ok {
			continue
		}
		var next []oracleTrial
		for _, tr := range trials {
			for _, v := range values {
				tr[ax] = v
				next = append(next, tr)
			}
		}
		trials = next
	}
	return trials
}

// runSlice runs trials, repeated copies times over, on each of the first
// sliceSeeds federations.
func runSlice(t *testing.T, copies int, trials []oracleTrial) []*oracleRun {
	t.Helper()
	var all []oracleTrial
	for i := 0; i < copies; i++ {
		all = append(all, trials...)
	}
	var runs []*oracleRun
	for seed := int64(1); seed <= sliceSeeds; seed++ {
		runs = append(runs, runOracle(t, seed, func(*rand.Rand) []oracleTrial { return all }))
	}
	return runs
}

// TestCVIdenticalToMS pins the paper's central effectiveness claim: "with
// vocabularies held at the receptionist, effectiveness is identical to that
// of a MS system" — CV answers == MS answers, document for document and
// score for score, and both are the oracle's.
func TestCVIdenticalToMS(t *testing.T) {
	runSlice(t, 1, crossTrials(map[int][]int{axMode: {1}}))
}

// TestCIMatchesCVOrderingWithFullExpansion: with k'·G covering the
// collection CI scores every document, so its answers == CV's == MS's.
func TestCIMatchesCVOrderingWithFullExpansion(t *testing.T) {
	runSlice(t, 1, crossTrials(map[int][]int{axMode: {1, 2}}))
}

// TestCVIdenticalToMSConcurrent drives CV ≡ MS through eight copies of every
// query at once on one shared pool. Run under -race this is the proof that
// the shared Federation holds no mutable per-query state.
func TestCVIdenticalToMSConcurrent(t *testing.T) {
	runSlice(t, 8, crossTrials(map[int][]int{axMode: {1}}))
}

// TestEvaluatorModesParity pins Options.Evaluator end to end: in every
// methodology — MS locally, CN and CV over the wire, CI through the grouped
// central index — MaxScore and WAND must return exactly the answers exact
// evaluation returns, bit-identical scores included, because every
// evaluator in the stack is rank-safe.
func TestEvaluatorModesParity(t *testing.T) {
	runs := runSlice(t, 1, crossTrials(map[int][]int{axMode: allModes, axEval: {1, 2}}))
	for _, run := range runs {
		for _, q := range run.queries {
			exact, err := run.c.mono.Query(q.text, q.k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, _ := run.c.want(ModeCV, 0, q.text)
			if msg := run.c.check(exact.Answers, want, q.k); msg != "" {
				t.Fatalf("MS query %q k=%d against the oracle: %s", q.text, q.k, msg)
			}
			for _, eval := range []search.Evaluator{search.EvalMaxScore, search.EvalWAND} {
				got, err := run.c.mono.Query(q.text, q.k, Options{Evaluator: eval})
				if err != nil {
					t.Fatal(err)
				}
				if msg := sameAnswers(got.Answers, exact.Answers); msg != "" {
					t.Fatalf("MS %v query %q k=%d against exact: %s", eval, q.text, q.k, msg)
				}
			}
		}
	}
}

// TestSingleReplicaGoldenEquivalence: a pool with one replica a librarian,
// under a renamed endpoint, must answer == the unreplicated pool in every
// mode — the router is a pass-through when there is nothing to choose
// between — and record that endpoint on every call.
func TestSingleReplicaGoldenEquivalence(t *testing.T) {
	for seed := int64(1); seed <= sliceSeeds; seed++ {
		c, queries := newOracleCorpus(t, rand.New(rand.NewSource(seed)))
		_, libs := newSegmentedDialer(t, c.docs, c.order, 1)
		plain, one := c.pool(t, libs, 0, false, false), c.pool(t, libs, 1, false, false)
		for _, tr := range crossTrials(map[int][]int{axMode: allModes}) {
			for _, q := range queries {
				label := fmt.Sprintf("seed=%d G=%d %v query %q k=%d", seed, c.groupSize, tr, q.text, q.k)
				want, err := plain.Query(tr.mode(), q.text, q.k, c.options(tr))
				if err != nil {
					t.Fatalf("%s unreplicated: %v", label, err)
				}
				got, err := one.Query(tr.mode(), q.text, q.k, c.options(tr))
				if err != nil {
					t.Fatalf("%s one replica: %v", label, err)
				}
				if msg := sameAnswers(got.Answers, want.Answers); msg != "" {
					t.Fatalf("%s: against the unreplicated pool: %s", label, msg)
				}
				if scores, ambiguous := c.want(tr.mode(), c.options(tr).KPrime, q.text); !ambiguous {
					if msg := c.check(got.Answers, scores, q.k); msg != "" {
						t.Fatalf("%s: against the oracle: %s", label, msg)
					}
				}
				for _, call := range got.Trace.Calls {
					if call.Phase == PhaseRank && call.Replica != call.Librarian+"#0" {
						t.Fatalf("%s: a call to %s was served by %q", label, call.Librarian, call.Replica)
					}
				}
			}
		}
		assertNoLeakedConns(t, one)
	}
}

// TestHedgingGoldenOnFaultFreeFleet: hedging must be invisible in answers.
// On a fault-free fleet of two replicas a librarian, its latency trackers
// warmed past the sample gate, queries hedged at the median latency answer
// == the unreplicated, unhedged pool in every mode, hedges do launch, and
// hedge accounting stays plausible with no hedge loser recorded as a
// failure. Four copies of every query run at once.
func TestHedgingGoldenOnFaultFreeFleet(t *testing.T) {
	hedges := 0
	for _, run := range runSlice(t, 4, crossTrials(map[int][]int{axMode: allModes, axReplicas: {1}})) {
		hedges += run.hedges
	}
	if hedges == 0 {
		t.Error("hedged queries never launched a hedge")
	}
}

// TestSegmentedFleetParityAcrossModes pins the federation-level segment
// property: fleets of 2- and 5-segment librarians answer every mode == the
// same corpus served as one-segment librarians.
func TestSegmentedFleetParityAcrossModes(t *testing.T) {
	runSlice(t, 1, crossTrials(map[int][]int{axMode: allModes, axSegments: {1, 2}}))
}

// TestTopRAllEqualsFullFanout: TopR = the whole fleet must answer == full
// fan-out in every mode — selection with R = all ranks every librarian,
// selects every librarian, and therefore changes only the trace: full
// fan-out records no selection, and R = all selects every librarian asked.
func TestTopRAllEqualsFullFanout(t *testing.T) {
	runSlice(t, 1, crossTrials(map[int][]int{axMode: allModes, axTopR: {0, 1}}))
}

// TestWireGoldenParity pins the wire's safety property: batching and
// trimmed rank replies are transports, not semantics — every mode answers
// == whether or not frames are coalesced, and whatever the paper's
// two-round protocol answers. The wire metrics count what crossed it.
func TestWireGoldenParity(t *testing.T) {
	runs := runSlice(t, 1, crossTrials(map[int][]int{axMode: allModes, axBatch: {0, 1}, axTwoRound: {0, 1}}))
	for _, run := range runs {
		for key, p := range run.pools {
			if p.Metrics().WireRoundTrips() == 0 || p.Metrics().WireBytesIn() == 0 {
				t.Errorf("pool %+v recorded %d round trips and %d inbound bytes", key, p.Metrics().WireRoundTrips(), p.Metrics().WireBytesIn())
			}
		}
	}
}

// TestWireGoldenParityUnderFaults re-checks parity when the exchanges take
// the ugly paths: every librarian's #0 killed, so exchanges fail and are
// retried on the survivor, pipelined and two-round, in every mode. No
// connection lease may leak.
func TestWireGoldenParityUnderFaults(t *testing.T) {
	runSlice(t, 1, crossTrials(map[int][]int{axMode: allModes, axTwoRound: {0, 1}, axReplicas: {2}}))
}
