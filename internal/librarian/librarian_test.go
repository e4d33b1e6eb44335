package librarian

import (
	"context"
	"errors"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"teraphim/internal/protocol"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

func testDocs() []store.Document {
	return []store.Document{
		{Title: "AP-0", Text: "cats and dogs live together"},
		{Title: "AP-1", Text: "dogs chase the mail carrier"},
		{Title: "AP-2", Text: "cats nap in warm sunlight all day"},
	}
}

func buildTestLibrarian(t testing.TB) *Librarian {
	t.Helper()
	lib, err := Build("AP", testDocs(), BuildOptions{
		Analyzer: textproc.NewAnalyzer(textproc.WithoutStopwords(), textproc.WithoutStemming()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build("", testDocs(), BuildOptions{}); err == nil {
		t.Fatal("empty name: want error")
	}
	if _, err := New("x", nil, nil); err == nil {
		t.Fatal("nil parts: want error")
	}
}

func TestVocab(t *testing.T) {
	lib := buildTestLibrarian(t)
	reply := callServer(t, lib, &protocol.VocabRequest{})
	vr, ok := reply.(*protocol.VocabReply)
	if !ok {
		t.Fatalf("got %T", reply)
	}
	fts := map[string]uint32{}
	for _, ts := range vr.Terms {
		fts[ts.Term] = ts.FT
	}
	if fts["cats"] != 2 || fts["dogs"] != 2 || fts["sunlight"] != 1 {
		t.Fatalf("vocab wrong: %v", fts)
	}
}

func TestRankOverWire(t *testing.T) {
	lib := buildTestLibrarian(t)
	reply := callServer(t, lib, &protocol.RankQuery{Query: "cats sunlight", K: 10})
	rr, ok := reply.(*protocol.RankReply)
	if !ok {
		t.Fatalf("got %T", reply)
	}
	if len(rr.Results) == 0 {
		t.Fatal("no results")
	}
	if rr.Results[0].Doc != 2 {
		t.Fatalf("top doc = %d, want 2", rr.Results[0].Doc)
	}
	// Wire results must equal direct engine results.
	ranking, err := lib.Engine().Rank("cats sunlight", 10, nil)
	direct := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(rr.Results) {
		t.Fatalf("wire %d results, direct %d", len(rr.Results), len(direct))
	}
	for i := range direct {
		if direct[i].Doc != rr.Results[i].Doc || direct[i].Score != rr.Results[i].Score {
			t.Fatalf("result %d differs: wire %+v direct %+v", i, rr.Results[i], direct[i])
		}
	}
	if rr.Stats.PostingsDecoded == 0 {
		t.Fatal("stats not propagated")
	}
}

// TestNaNWeightOverWire: a CV request whose weights hold a NaN is answered
// with an ErrorReply, never a ranking whose order the NaN left undefined.
func TestNaNWeightOverWire(t *testing.T) {
	lib := buildTestLibrarian(t)
	weights := map[string]float64{"cats": math.NaN(), "sunlight": 1}
	for _, msg := range []protocol.Message{
		&protocol.RankQuery{Query: "cats sunlight", K: 10, Weights: weights},
		&protocol.ScoreDocs{Query: "cats sunlight", Docs: []uint32{0, 2}, Weights: weights},
	} {
		reply := callServer(t, lib, msg)
		er, ok := reply.(*protocol.ErrorReply)
		if !ok {
			t.Fatalf("%T with a NaN weight answered with %T (%+v), want ErrorReply", msg, reply, reply)
		}
		if !strings.Contains(er.Message, search.ErrInvalidWeight.Error()) {
			t.Fatalf("%T: error %q does not name the invalid weight", msg, er.Message)
		}
	}
}

func TestScoreDocsOverWire(t *testing.T) {
	lib := buildTestLibrarian(t)
	reply := callServer(t, lib, &protocol.ScoreDocs{Query: "cats", Docs: []uint32{0, 1, 2}})
	rr, ok := reply.(*protocol.RankReply)
	if !ok {
		t.Fatalf("got %T", reply)
	}
	if len(rr.Results) != 3 {
		t.Fatalf("got %d scores, want 3", len(rr.Results))
	}
	if rr.Results[1].Score != 0 {
		t.Fatal("doc 1 has no 'cats' but scored nonzero")
	}
}

func TestFetchPlainAndCompressed(t *testing.T) {
	lib := buildTestLibrarian(t)

	reply := callServer(t, lib, &protocol.FetchDocs{Docs: []uint32{0, 2}})
	fr, ok := reply.(*protocol.FetchReply)
	if !ok {
		t.Fatalf("got %T", reply)
	}
	if len(fr.Docs) != 2 || string(fr.Docs[0].Data) != testDocs()[0].Text {
		t.Fatalf("plain fetch wrong: %+v", fr)
	}

	reply = callServer(t, lib, &protocol.FetchDocs{Docs: []uint32{1}, Compressed: true})
	fr, ok = reply.(*protocol.FetchReply)
	if !ok {
		t.Fatalf("got %T", reply)
	}
	if !fr.Docs[0].Compressed {
		t.Fatal("blob not marked compressed")
	}
	text, err := lib.Store().Decompress(fr.Docs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if text != testDocs()[1].Text {
		t.Fatalf("compressed fetch decompressed to %q", text)
	}
}

func TestTCPServer(t *testing.T) {
	lib := buildTestLibrarian(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(lib, ln)
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	dialer := simnet.TCPDialer{"AP": srv.Addr().String()}
	conn, err := dialer.Dial("AP")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := protocol.WriteMessage(conn, &protocol.RankQuery{Query: "dogs", K: 5}); err != nil {
		t.Fatal(err)
	}
	reply, _, err := protocol.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := reply.(*protocol.RankReply)
	if !ok || len(rr.Results) != 2 {
		t.Fatalf("TCP rank reply: %#v", reply)
	}
	if _, err := dialer.Dial("missing"); err == nil {
		t.Fatal("unknown TCP peer: want error")
	}
}

func TestTCPServerConcurrentSessions(t *testing.T) {
	lib := buildTestLibrarian(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(lib, ln)
	defer srv.Close()

	const sessions = 8
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func() {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for j := 0; j < 5; j++ {
				if _, err := protocol.WriteMessage(conn, &protocol.RankQuery{Query: "cats dogs", K: 3}); err != nil {
					errs <- err
					return
				}
				if _, _, err := protocol.ReadMessage(conn); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestInProcessDialer(t *testing.T) {
	lib := buildTestLibrarian(t)
	d := NewInProcessDialer([]*Librarian{lib}, simnet.LinkConfig{})
	conn, err := d.Dial("AP")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.WriteMessage(conn, &protocol.Hello{}); err != nil {
		t.Fatal(err)
	}
	reply, _, err := protocol.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if hr, ok := reply.(*protocol.HelloReply); !ok || hr.Name != "AP" {
		t.Fatalf("got %#v", reply)
	}
	conn.Close()
	d.Wait()
	if _, err := d.Dial("nope"); err == nil {
		t.Fatal("unknown in-process peer: want error")
	}
	if err := d.SetLink("nope", simnet.LinkConfig{}); err == nil {
		t.Fatal("SetLink unknown peer: want error")
	}
}

func TestBuildStemsConsistently(t *testing.T) {
	// With the default analyzer, a stemmed query must match stemmed docs.
	lib, err := Build("X", []store.Document{
		{Title: "d0", Text: "distributed libraries"},
		{Title: "d1", Text: "centralized monoliths"},
	}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranking, err := lib.Engine().Rank("library distribution", 5, nil)
	results := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || results[0].Doc != 0 {
		t.Fatalf("stemming mismatch: %v", results)
	}
	if !strings.Contains(lib.Name(), "X") {
		t.Fatal("name lost")
	}
}

// TestNeverIngestedStartsNoGoroutine: a librarian that is built and served
// but never ingests owns no goroutine — no ingest worker, no merge pass —
// so once its sessions (both framings) end, none is left.
func TestNeverIngestedStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	lib := buildTestLibrarian(t)
	for _, version := range []uint32{0, protocol.Version} {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = lib.ServeConn(server)
		}()
		wr, rd := &protocol.Writer{W: client}, &protocol.Reader{R: client}
		ask := func(tag uint32, msg protocol.Message) {
			if _, err := wr.Write(tag, msg); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := rd.Read(); err != nil {
				t.Fatal(err)
			}
		}
		ask(0, &protocol.Hello{Version: version})
		wr.Tagged, rd.Tagged = version != 0, version != 0
		for i := 0; i < 25; i++ {
			ask(uint32(i), &protocol.RankQuery{Query: "cats dogs", K: 3})
		}
		client.Close()
		<-done
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after serving a never-ingested librarian, %d before it was built", after, before)
	}
}

// TestSavedLibrarianCanGrow: a collection that was built, grown, compacted,
// saved and loaded is a librarian like any other — it ingests again, and
// then answers exactly as one built from all the documents at once.
func TestSavedLibrarianCanGrow(t *testing.T) {
	docs := synthCorpus(90)
	lib := servedAs(t, docs[:60], 2)
	if err := lib.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(dir, lib, SaveOptions{Stopwords: true, Stemming: true}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	ingestFlush(t, loaded, docs[60:])
	fresh := servedAs(t, docs, 1)
	for _, req := range []protocol.Message{
		&protocol.RankQuery{Query: "whale reef tide", K: 30},
		&protocol.RankQuery{Query: "anchor gull", K: 5, Evaluator: uint8(search.EvalMaxScore)},
		&protocol.ScoreDocs{Query: "storm lantern", Docs: []uint32{89, 0, 59, 60, 61, 30}},
		&protocol.FetchDocs{Docs: []uint32{0, 29, 30, 59, 60, 89}},
		&protocol.VocabRequest{},
	} {
		got, want := comparable(t, loaded, callServer(t, loaded, req)), comparable(t, fresh, callServer(t, fresh, req))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: loaded-then-grown librarian answers\n%+v\na fresh build\n%+v", req.Type(), got, want)
		}
	}
}

// flakyListener fails its first fails Accept calls the way a process at its
// descriptor limit does, then accepts.
type flakyListener struct {
	net.Listener
	fails int32
	calls atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.calls.Add(1) <= l.fails {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestAcceptLoopBacksOff: failing Accepts are retried at a doubling delay,
// not in a spin — four failures cost at least 5+10+20+40 ms and no call
// beyond them — and the server then serves and closes as usual.
func TestAcceptLoopBacksOff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, fails: 4}
	start := time.Now()
	srv := Serve(buildTestLibrarian(t), fl)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := protocol.WriteMessage(conn, &protocol.VocabRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := protocol.ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	if elapsed, calls := time.Since(start), fl.calls.Load(); elapsed < 15*acceptBackoffMin || calls > fl.fails+2 {
		t.Fatalf("served after %v and %d Accept calls; %d failures must cost at least %v and no extra calls",
			elapsed, calls, fl.fails, 15*acceptBackoffMin)
	}
}
