package core

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/protocol"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
)

// mapDialer dials each name through its own connect function, so a test can
// hand the pool a scripted or failing peer.
type mapDialer map[string]func() (net.Conn, error)

func (d mapDialer) Dial(name string) (net.Conn, error) {
	fn, ok := d[name]
	if !ok {
		return nil, fmt.Errorf("unknown peer %q", name)
	}
	return fn()
}

// haltAfter serves a real librarian for n messages, then slams the
// connection shut — simulating a mid-session librarian crash.
func haltAfter(lib *librarian.Librarian, n int) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			relay(server, n, func(msg protocol.Message) protocol.Message { return librarianHandle(lib, msg) })
		}()
		return client, nil
	}
}

// relay answers up to n frames on conn through handle (n < 0: until the
// conn fails) in a pool connection's framing: the Hello untagged, every
// later frame tagged.
func relay(conn net.Conn, n int, handle func(protocol.Message) protocol.Message) {
	rd, wr := &protocol.Reader{R: conn}, &protocol.Writer{W: conn}
	for i := 0; i != n; i++ {
		msg, tag, _, err := rd.Read()
		if err != nil {
			return
		}
		if _, err := wr.Write(tag, handle(msg)); err != nil {
			return
		}
		rd.Tagged, wr.Tagged = true, true
	}
}

// librarianHandle proxies one message through a real librarian via an
// internal pipe session.
func librarianHandle(lib *librarian.Librarian, msg protocol.Message) protocol.Message {
	c1, c2 := net.Pipe()
	done := make(chan protocol.Message, 1)
	go func() {
		defer c1.Close()
		_, _ = protocol.WriteMessage(c1, msg)
		reply, _, err := protocol.ReadMessage(c1)
		if err != nil {
			reply = &protocol.ErrorReply{Message: err.Error()}
		}
		done <- reply
	}()
	_ = lib.ServeConn(c2)
	c2.Close()
	return <-done
}

func buildFailureLibs(t *testing.T) (*librarian.Librarian, *librarian.Librarian) {
	t.Helper()
	a := testAnalyzer()
	good, err := librarian.Build("good", []store.Document{
		{Title: "g0", Text: "stable reliable librarian serving documents"},
	}, librarian.BuildOptions{Analyzer: a})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := librarian.Build("bad", []store.Document{
		{Title: "b0", Text: "flaky librarian that will crash mid session"},
	}, librarian.BuildOptions{Analyzer: a})
	if err != nil {
		t.Fatal(err)
	}
	return good, bad
}

func TestLibrarianCrashMidSessionSurfacesError(t *testing.T) {
	good, bad := buildFailureLibs(t)
	goodDialer := librarian.NewInProcessDialer([]*librarian.Librarian{good}, simnet.LinkConfig{})
	dialer := mapDialer{
		"good": func() (net.Conn, error) { return goodDialer.Dial("good") },
		// The bad librarian answers exactly one message (the Hello) and
		// then dies.
		"bad": haltAfter(bad, 1),
	}
	recep, err := NewPool(dialer, []string{"good", "bad"}, Config{Analyzer: testAnalyzer()})
	if err != nil {
		t.Fatalf("connect should succeed (Hello is answered): %v", err)
	}
	defer recep.Close()

	_, err = recep.Query(ModeCN, "librarian", 5, Options{})
	if err == nil {
		t.Fatal("query against crashed librarian: want error")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error should name the failed librarian: %v", err)
	}
}

func TestConnectFailsWhenLibrarianUnreachable(t *testing.T) {
	dialer := mapDialer{
		"gone": func() (net.Conn, error) { return nil, errors.New("connection refused") },
	}
	if _, err := NewPool(dialer, []string{"gone"}, Config{}); err == nil {
		t.Fatal("unreachable librarian: want error")
	}
}

func TestConnectFailsOnGarbageHello(t *testing.T) {
	dialer := mapDialer{
		"garbage": func() (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				// Read the Hello, reply with nonsense bytes.
				if _, _, err := protocol.ReadMessage(server); err != nil {
					return
				}
				_, _ = server.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
			}()
			return client, nil
		},
	}
	if _, err := NewPool(dialer, []string{"garbage"}, Config{}); err == nil {
		t.Fatal("garbage Hello reply: want error")
	}
}

// TestConnectFailsOnOtherVersion: a librarian answering the Hello at another
// wire version fails NewPool with protocol.ErrProtocolVersion after exactly
// one dial per endpoint, and a query whose redial meets such a peer fails
// with it at once: the mismatch is permanent, so nothing retries it.
func TestConnectFailsOnOtherVersion(t *testing.T) {
	lib, _ := buildFailureLibs(t)
	other := func() (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			relay(server, 1, func(msg protocol.Message) protocol.Message {
				hr := librarianHandle(lib, msg).(*protocol.HelloReply)
				hr.Version++
				return hr
			})
		}()
		return client, nil
	}
	var mu sync.Mutex
	dials := map[string]int{}
	counted := func(name string, dial func() (net.Conn, error)) func() (net.Conn, error) {
		return func() (net.Conn, error) {
			mu.Lock()
			dials[name]++
			n := dials[name]
			mu.Unlock()
			if name == "live" && n == 1 {
				return haltAfter(lib, 2)() // the Hello and one query
			}
			return dial()
		}
	}
	dialer := mapDialer{"AP": counted("AP", other), "FR": counted("FR", other), "live": counted("live", other)}
	_, err := NewPool(dialer, []string{"AP", "FR"}, Config{})
	if !errors.Is(err, protocol.ErrProtocolVersion) {
		t.Fatalf("NewPool against librarians at another version: %v, want ErrProtocolVersion", err)
	}
	mu.Lock()
	if dials["AP"] != 1 || dials["FR"] != 1 {
		t.Errorf("dials per endpoint %v, want exactly one each", dials)
	}
	mu.Unlock()

	pool, err := NewPool(dialer, []string{"live"}, Config{Analyzer: testAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	opts := Options{Retries: 3, Backoff: time.Millisecond}
	if _, err := pool.Query(ModeCN, "librarian", 5, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Query(ModeCN, "librarian", 5, opts); !errors.Is(err, protocol.ErrProtocolVersion) {
		t.Fatalf("query redialling into another version: %v, want ErrProtocolVersion", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if dials["live"] != 2 {
		t.Errorf("%d dials to a librarian that changed version, want 2: the redial is not retried", dials["live"])
	}
}

func TestQueryAfterCloseFails(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	// Close underneath, then query.
	if err := f.recep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.recep.Query(ModeCN, "alpha", 5, Options{}); err == nil {
		t.Fatal("query on closed receptionist: want error")
	}
	// Close is idempotent.
	if err := f.recep.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSetupVocabularyAgainstCrashedLibrarian(t *testing.T) {
	_, bad := buildFailureLibs(t)
	dialer := mapDialer{"bad": haltAfter(bad, 1)}
	recep, err := NewPool(dialer, []string{"bad"}, Config{Analyzer: testAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	defer recep.Close()
	if _, err := recep.SetupVocabulary(); err == nil {
		t.Fatal("vocabulary fetch from crashed librarian: want error")
	}
}

// TestCentralIndexRejectsMisplacedGroups: a librarian that ships groups
// other than those its place in the global numbering implies fails CI set-up
// with protocol.ErrBadIndexReply.
func TestCentralIndexRejectsMisplacedGroups(t *testing.T) {
	good, bad := buildFailureLibs(t)
	goodDialer := librarian.NewInProcessDialer([]*librarian.Librarian{good}, simnet.LinkConfig{})
	dialer := mapDialer{
		"good": func() (net.Conn, error) { return goodDialer.Dial("good") },
		// The bad librarian groups as if it sat one group further on.
		"bad": func() (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				relay(server, -1, func(msg protocol.Message) protocol.Message {
					if ir, ok := msg.(*protocol.IndexRequest); ok {
						ir.Base += ir.G
					}
					return librarianHandle(bad, msg)
				})
			}()
			return client, nil
		},
	}
	recep, err := NewPool(dialer, []string{"good", "bad"}, Config{Analyzer: testAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	defer recep.Close()
	if _, err := recep.SetupCentralIndexRemote(1); !errors.Is(err, protocol.ErrBadIndexReply) {
		t.Fatalf("misplaced groups: error %v, want ErrBadIndexReply", err)
	}
}

// fourLibCorpus builds a deterministic four-librarian corpus where every
// document carries one common term, so every librarian answers every query.
func fourLibCorpus() (map[string][]store.Document, []string) {
	order := []string{"AP", "FR", "WSJ", "ZIFF"}
	topics := map[string]string{"AP": "avalanche", "FR": "fiscal", "WSJ": "widget", "ZIFF": "zeppelin"}
	corpus := map[string][]store.Document{}
	for _, name := range order {
		for d := 0; d < 6; d++ {
			corpus[name] = append(corpus[name], store.Document{
				ID:    uint32(d),
				Title: fmt.Sprintf("%s-%d", name, d),
				Text:  fmt.Sprintf("shared %s retrieval document number%d", topics[name], d),
			})
		}
	}
	return corpus, order
}

// deadAfterSetup dials a librarian that answers its setup exchanges and then
// dies for good: the first connection serves setupMsgs messages before
// slamming shut, and every redial is refused.
func deadAfterSetup(lib *librarian.Librarian, setupMsgs int) func() (net.Conn, error) {
	dials := 0
	serve := haltAfter(lib, setupMsgs)
	return func() (net.Conn, error) {
		dials++
		if dials > 1 {
			return nil, errors.New("librarian down")
		}
		return serve()
	}
}

// timeoutOnceDialer serves the librarian normally from the second dial on;
// the first connection answers exactly one message (the Hello) and then goes
// silent without closing, so the next request blocks until the query
// deadline trips.
func timeoutOnceDialer(lib *librarian.Librarian) func() (net.Conn, error) {
	dials := 0
	return func() (net.Conn, error) {
		dials++
		client, server := net.Pipe()
		if dials == 1 {
			go func() {
				relay(server, 1, func(msg protocol.Message) protocol.Message { return librarianHandle(lib, msg) })
				// Hold the connection open but read nothing more: the
				// receptionist's next write blocks until its deadline.
			}()
		} else {
			go func() {
				defer server.Close()
				_ = lib.ServeConn(server)
			}()
		}
		return client, nil
	}
}

// partialFixture wires the four-librarian corpus with ZIFF dying after its
// setup exchanges, returning the receptionist plus the analysed terms for CI.
func partialFixture(t *testing.T, setupMsgs int) (*Pool, [][]string) {
	t.Helper()
	corpus, order := fourLibCorpus()
	a := testAnalyzer()
	libs := map[string]*librarian.Librarian{}
	var termsOf [][]string
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		libs[name] = lib
		for _, d := range corpus[name] {
			termsOf = append(termsOf, a.Terms(nil, d.Text))
		}
	}
	goodDialer := librarian.NewInProcessDialer(
		[]*librarian.Librarian{libs["AP"], libs["FR"], libs["WSJ"]}, simnet.LinkConfig{})
	dialer := mapDialer{
		"AP":   func() (net.Conn, error) { return goodDialer.Dial("AP") },
		"FR":   func() (net.Conn, error) { return goodDialer.Dial("FR") },
		"WSJ":  func() (net.Conn, error) { return goodDialer.Dial("WSJ") },
		"ZIFF": deadAfterSetup(libs["ZIFF"], setupMsgs),
	}
	recep, err := NewPool(dialer, order, Config{Analyzer: a})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		recep.Close()
		goodDialer.Wait()
	})
	return recep, termsOf
}

// TestPartialResultAcrossModes pins the degraded-operation contract: a query
// against 4 librarians where 1 is down returns the top-k merged from the 3
// survivors with Trace.Degraded set and one Trace.Failures entry — under all
// of CN, CV and CI.
func TestPartialResultAcrossModes(t *testing.T) {
	cases := []struct {
		mode      Mode
		setupMsgs int // messages ZIFF answers before dying
	}{
		{ModeCN, 1}, // Hello only
		{ModeCV, 2}, // Hello + VocabRequest
		{ModeCI, 2}, // Hello + VocabRequest; central index built locally
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			recep, termsOf := partialFixture(t, tc.setupMsgs)
			if tc.mode != ModeCN {
				if _, err := recep.SetupVocabulary(); err != nil {
					t.Fatal(err)
				}
			}
			opts := Options{AllowPartial: true}
			if tc.mode == ModeCI {
				g, err := BuildGrouped(termsOf, 2, testAnalyzer())
				if err != nil {
					t.Fatal(err)
				}
				if err := recep.Federation().SetupCentralIndex(g); err != nil {
					t.Fatal(err)
				}
				// Expand every group so the dead librarian's documents are
				// nominated and its failure exercised.
				opts.KPrime = int(g.ix.NumDocs())
			}
			res, err := recep.Query(tc.mode, "shared", 30, opts)
			if err != nil {
				t.Fatalf("partial query: %v", err)
			}
			if !res.Trace.Degraded {
				t.Fatal("Trace.Degraded not set")
			}
			if len(res.Trace.Failures) != 1 {
				t.Fatalf("Failures = %+v, want exactly one", res.Trace.Failures)
			}
			f := res.Trace.Failures[0]
			if f.Librarian != "ZIFF" || f.Phase != PhaseRank || f.Attempts != 1 || f.Err == nil {
				t.Fatalf("failure = %+v", f)
			}
			if len(res.Answers) == 0 {
				t.Fatal("no answers from survivors")
			}
			survivors := map[string]bool{}
			for _, a := range res.Answers {
				if a.Librarian == "ZIFF" {
					t.Fatal("answer from dead librarian")
				}
				survivors[a.Librarian] = true
			}
			if len(survivors) != 3 {
				t.Fatalf("answers from %d survivors, want 3", len(survivors))
			}
			if got := res.Trace.Failures; len(got) != 1 || got[0].Librarian != "ZIFF" || got[0].Phase != PhaseRank {
				t.Fatalf("Failures = %+v, want ZIFF's rank phase", got)
			}
		})
	}
}

// TestPartialNotAllowedStillFails pins backward compatibility: without
// AllowPartial a dead librarian fails the query, naming the librarian, and
// the failure is still recorded in the trace for diagnosis.
func TestPartialNotAllowedStillFails(t *testing.T) {
	recep, _ := partialFixture(t, 1)
	_, err := recep.Query(ModeCN, "shared", 10, Options{})
	if err == nil {
		t.Fatal("dead librarian without AllowPartial: want error")
	}
	if !strings.Contains(err.Error(), "ZIFF") {
		t.Fatalf("error should name the dead librarian: %v", err)
	}
}

// TestMinLibrariansGate: a partial result needs at least MinLibrarians
// surviving answers in the rank phase.
func TestMinLibrariansGate(t *testing.T) {
	recep, _ := partialFixture(t, 1)
	if _, err := recep.Query(ModeCN, "shared", 10, Options{MinLibrarians: 4}); err == nil {
		t.Fatal("3 survivors with MinLibrarians 4: want error")
	}
	res, err := recep.Query(ModeCN, "shared", 10, Options{MinLibrarians: 3})
	if err != nil {
		t.Fatalf("3 survivors with MinLibrarians 3: %v", err)
	}
	if !res.Trace.Degraded || len(res.Answers) == 0 {
		t.Fatalf("degraded=%v answers=%d", res.Trace.Degraded, len(res.Answers))
	}
}

// TestRetryRecoversTimedOutLibrarian: a librarian that times out on attempt
// 1 and answers on attempt 2 contributes to the final ranking, with no
// failure recorded and the extra attempt visible in the trace.
func TestRetryRecoversTimedOutLibrarian(t *testing.T) {
	a := testAnalyzer()
	good, flaky := buildFailureLibs(t)
	goodDialer := librarian.NewInProcessDialer([]*librarian.Librarian{good}, simnet.LinkConfig{})
	dialer := mapDialer{
		"good": func() (net.Conn, error) { return goodDialer.Dial("good") },
		"bad":  timeoutOnceDialer(flaky),
	}
	recep, err := NewPool(dialer, []string{"good", "bad"}, Config{Analyzer: a})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		recep.Close()
		goodDialer.Wait()
	}()
	res, err := recep.Query(ModeCN, "librarian", 10, Options{
		Timeout: 200 * time.Millisecond,
		Retries: 1,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("retry should recover the flaky librarian: %v", err)
	}
	if res.Trace.Degraded || len(res.Trace.Failures) != 0 {
		t.Fatalf("recovered query marked degraded: %+v", res.Trace)
	}
	var fromFlaky bool
	for _, ans := range res.Answers {
		if ans.Librarian == "bad" {
			fromFlaky = true
		}
	}
	if !fromFlaky {
		t.Fatal("recovered librarian did not contribute to the ranking")
	}
	if got := res.Trace.RetryAttempts(); got != 1 {
		t.Fatalf("RetryAttempts = %d, want 1", got)
	}
	attempts := 0
	for _, c := range res.Trace.Calls {
		if c.Phase == PhaseRank && c.Librarian == "bad" {
			attempts++
		}
	}
	if attempts != 2 {
		t.Fatalf("rank calls for flaky librarian = %d, want 2 (timeout + retry)", attempts)
	}
}

// TestDeadlineMarksConnDirtyAndResyncs pins the stream-resync fix: after a
// deadline error leaves a request half-written, the connection must not be
// reused — the next query redials and succeeds with clean framing instead of
// failing on garbage MsgTypes.
func TestDeadlineMarksConnDirtyAndResyncs(t *testing.T) {
	a := testAnalyzer()
	good, flaky := buildFailureLibs(t)
	goodDialer := librarian.NewInProcessDialer([]*librarian.Librarian{good}, simnet.LinkConfig{})
	dialer := mapDialer{
		"good": func() (net.Conn, error) { return goodDialer.Dial("good") },
		"bad":  timeoutOnceDialer(flaky),
	}
	recep, err := NewPool(dialer, []string{"good", "bad"}, Config{Analyzer: a})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		recep.Close()
		goodDialer.Wait()
	}()
	// Query 1: the deadline trips mid-exchange and, with no retries
	// configured, fails the query.
	if _, err := recep.Query(ModeCN, "librarian", 5, Options{Timeout: 100 * time.Millisecond}); err == nil {
		t.Fatal("timed-out query without retries: want error")
	}
	// Query 2: the desynced stream is replaced, not reused.
	res, err := recep.Query(ModeCN, "librarian", 5, Options{})
	if err != nil {
		t.Fatalf("query after resync: %v", err)
	}
	var fromFlaky bool
	for _, ans := range res.Answers {
		if ans.Librarian == "bad" {
			fromFlaky = true
		}
	}
	if !fromFlaky {
		t.Fatal("redialled librarian did not answer after resync")
	}
}

func TestQueryTimeout(t *testing.T) {
	corpus, order := smallCorpus(t)
	a := testAnalyzer()
	var libs []*librarian.Librarian
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs, lib)
	}
	// Links with 200ms one-way latency: a 20ms query deadline must trip.
	dialer := librarian.NewInProcessDialer(libs, simnet.LinkConfig{Latency: 200 * time.Millisecond})
	recep, err := NewPool(dialer, order, Config{Analyzer: a})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		recep.Close()
		dialer.Wait()
	}()
	if _, err := recep.Query(ModeCN, "alpha", 5, Options{Timeout: 20 * time.Millisecond}); err == nil {
		t.Fatal("20ms deadline over 200ms links: want timeout error")
	}
	// Without a deadline (or with a generous one) the same query succeeds.
	res, err := recep.Query(ModeCN, "alpha", 5, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("generous deadline: %v", err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers after deadline recovery")
	}
}
