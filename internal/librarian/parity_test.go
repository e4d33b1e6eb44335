package librarian

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"teraphim/internal/huffman"
	"teraphim/internal/protocol"
	"teraphim/internal/search"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

// parityCorpus is one fixed trecsynth subcollection with its queries.
func parityCorpus(t testing.TB) ([]store.Document, []trecsynth.Query) {
	t.Helper()
	cfg := trecsynth.DefaultConfig()
	cfg.Subs = []trecsynth.SubSpec{{Name: "C", NumDocs: 300}}
	cfg.VocabSize, cfg.NumTopics, cfg.MeanDocLen = 3000, 12, 50
	cfg.NumShortQueries, cfg.NumLongQueries = 4, 2
	c, err := trecsynth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.Subcollections[0].Docs, c.Queries
}

// servedAs serves docs as n segments: the first n-th built, the rest
// ingested one chunk per Flush with background merging off.
func servedAs(t testing.TB, docs []store.Document, n int) *Librarian {
	t.Helper()
	lib, err := Build("C", docs[:len(docs)/n], BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lib.Close() })
	if err := lib.ConfigureIngest(IngestConfig{MergeFanIn: -1}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		ingestFlush(t, lib, docs[i*len(docs)/n:(i+1)*len(docs)/n])
	}
	if got := len(lib.SegmentStats().Segments); got != n {
		t.Fatalf("segments = %d, want %d", got, n)
	}
	return lib
}

// ingestFlush makes docs one more searchable segment of lib.
func ingestFlush(t testing.TB, lib *Librarian, docs []store.Document) {
	t.Helper()
	if err := lib.Ingest(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	if err := lib.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// exchange performs one request on a fresh seed-framed session and returns
// the decoded reply with its frame bytes as read off the wire.
func exchange(t testing.TB, lib *Librarian, msg protocol.Message) (protocol.Message, []byte) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = lib.ServeConn(server)
	}()
	defer func() {
		client.Close()
		server.Close()
		<-done
	}()
	if _, err := protocol.WriteMessage(client, msg); err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	reply, _, err := protocol.ReadMessage(io.TeeReader(client, &frame))
	if err != nil {
		t.Fatal(err)
	}
	return reply, frame.Bytes()
}

// comparable strips from lib's reply what legitimately depends on how the
// collection is cut into segments — work counters, byte sizes, the transfer
// model — and decodes compressed documents through the model lib advertises,
// so what is left must be equal however many segments answered.
func comparable(t testing.TB, lib *Librarian, msg protocol.Message) protocol.Message {
	t.Helper()
	var model *huffman.TextModel
	plain := func(docs []protocol.DocBlob) {
		for i, b := range docs {
			if !b.Compressed {
				continue
			}
			if model == nil {
				mr, _ := exchange(t, lib, &protocol.ModelRequest{})
				var err error
				if model, err = huffman.UnmarshalTextModel(mr.(*protocol.ModelReply).Model); err != nil {
					t.Fatal(err)
				}
			}
			text, err := model.DecompressDoc(b.Data)
			if err != nil {
				t.Fatalf("decompress doc %d: %v", b.Doc, err)
			}
			docs[i].Data = []byte(text)
		}
	}
	switch r := msg.(type) {
	case *protocol.RankReply:
		r.Stats = search.Stats{}
		plain(r.Docs)
	case *protocol.BooleanReply:
		r.Stats = search.Stats{}
	case *protocol.HelloReply:
		r.IndexBytes, r.StoreBytes = 0, 0
	case *protocol.ModelReply:
		r.Model = nil
	case *protocol.FetchReply:
		plain(r.Docs)
	case *protocol.BatchReply:
		r.Sizes = nil
		for _, it := range r.Items {
			comparable(t, lib, it)
		}
	}
	return msg
}

// parityPins are the SHA-256 of the one-segment reply frames, recorded at
// 8b063f6 from the static Librarian that the one-segment manifest replaced;
// "index" was re-recorded when IndexReply became grouped postings, and
// "hello" when the wire version in its trailing byte went to 2.
var parityPins = map[string]string{
	"batch":                     "f7c45e13c714ea6e9a4eb7b1abaf267b62be212ba822bb4b3f685f5a10763532",
	"boolean":                   "fef355a8040c9732f9e20507fb0dd172bd4e4dfc220e337057afc0933e8c216b",
	"empty rank":                "537025168db79daa99bbc5e14ef315f1b2120debba229cd87c8888016566ba0a",
	"empty score weights":       "537025168db79daa99bbc5e14ef315f1b2120debba229cd87c8888016566ba0a",
	"fetch compressed":          "05d51a9d4aaed39e1de25dd4b257de499319157b430afa81cd46bfa7b0ce97e5",
	"fetch out of range":        "acbb20b04ec28a55eda52e8d6929cfcd7f83e2729e93ea03f3c5b911a3da1f48",
	"fetch plain":               "4141d25ba10eebc425901ee0b1ecbda1c48137cb6a10b2cbc42fd3b806074f27",
	"hello":                     "7111e3d894047bd39115f36df220b073b704e675db205e1e5981f74fae9213c4",
	"index":                     "f9371e3f91040de00f44d8ca176379a4a55a25c071e17b1d1c10b5d9e1cb8139",
	"model":                     "c16bb5526350d7f091e747d569a7dc7ff80f741bf1817399f552f69dcfe8a998",
	"rank bad evaluator":        "8712b33c0f5430e90d444c2b6fab3a6319d3a263fb6ef08fa8cafeddb031b0c1",
	"rank exact":                "52923997fb2f6abeb3138e3b18501303a8f707d9530ef4c2d571dc123a1c02e9",
	"rank fetchtop compressed":  "63810fa4db4ce6efb3fc56b5021711fd6de9fb3f3db348cfb4b5f28b4aad0d8e",
	"rank fetchtop plain":       "c181c874e5a202232ccb9ad61e33e07bef4ddff42b70f6af4b33980ca582e7c9",
	"rank k=0":                  "9e699593bc46f7c0b9035a11b0319a2870fb4a083439356d8763d6c532977aeb",
	"rank maxscore":             "81d69671fef1d7035b792582623218462f3a9be8e8e1a03c8e5149a40ad9a7c2",
	"rank wand":                 "52923997fb2f6abeb3138e3b18501303a8f707d9530ef4c2d571dc123a1c02e9",
	"rank weights exact":        "b064847ad28b6091f5f1809ecb27fc117877c76dbc521c5266e15435b9b0e309",
	"rank weights maxscore":     "cf23318df31c26d5000ad25da2d61db78207c1fe3ee805496ef2e2b2bb547636",
	"rank weights wand":         "db986e66f938f6678c76f8d7437023406915754308ef9812518efdae23699975",
	"score fetchtop compressed": "3c433af91b1bbe622960faa12da158ad9f0dfe4ed2bc9fcb849c688c3d1aa7f8",
	"score k=0":                 "0efd40fb1ea12aaf699a6c4aa4f7753d70ffbf78417feccc53849d13835f8fca",
	"score k=5 weights":         "5cd2da8a6b715862c7d840ecc3456b88c2c3ada350c5d06e48163ead79838abf",
	"score out of range":        "d2ae8be4c75f87868d6a915856c93563ffe2aca67a39bd68bb7798c86e035b1d",
	"unexpected message":        "e3f4cf6b2dbd999ea4eb0f8197081ebdbaff53845c0a383bad56eb139244941e",
	"vocab":                     "0d7cfac409cec43e1fbd905628ba3d1dceddda681821b521ff4f7c23af598878",
}

// TestSegmentCountParity is the wall between "one segment" and "several":
// the same corpus served as 1, 2 and 5 segments answers every request type
// alike. The one-segment replies are pinned byte for byte (parityPins) and
// the multi-segment replies must equal them: as frames where exact is set,
// otherwise after comparable() removed what depends on the segmentation.
func TestSegmentCountParity(t *testing.T) {
	docs, queries := parityCorpus(t)
	short, long := queries[0].Text, queries[len(queries)-1].Text
	terms := strings.Fields(short)
	one := servedAs(t, docs, 1)
	weights := func(q string) map[string]float64 {
		eng := one.Engine()
		return eng.QueryWeights(eng.ParseQuery(q))
	}
	nominated := []uint32{299, 0, 150, 149, 151, 60, 59, 61, 7, 240, 120, 119}

	type row struct {
		name  string
		req   protocol.Message
		exact bool
	}
	rows := []row{
		{"hello", &protocol.Hello{Version: protocol.Version}, false},
		{"vocab", &protocol.VocabRequest{}, true},
		{"model", &protocol.ModelRequest{}, false},
		// Base 1237 puts segment boundaries inside groups.
		{"index", &protocol.IndexRequest{G: 10, Base: 1237}, true},
		{"boolean", &protocol.BooleanQuery{Expr: fmt.Sprintf("%s or (%s and not %s)", terms[0], terms[1], terms[2])}, false},
		{"score k=0", &protocol.ScoreDocs{Query: short, Docs: nominated}, false},
		{"score k=5 weights", &protocol.ScoreDocs{Query: long, Docs: nominated, Weights: weights(long), K: 5}, false},
		{"fetch plain", &protocol.FetchDocs{Docs: nominated}, true},
		{"fetch compressed", &protocol.FetchDocs{Docs: nominated, Compressed: true}, false},
		{"rank fetchtop plain", &protocol.RankQuery{Query: short, K: 8, FetchTop: 4}, false},
		{"rank fetchtop compressed", &protocol.RankQuery{Query: long, K: 8, FetchTop: 50, Compressed: true}, false},
		{"score fetchtop compressed", &protocol.ScoreDocs{Query: short, Docs: nominated, K: 6, FetchTop: 3, Compressed: true}, false},
		{"batch", &protocol.BatchQuery{Items: []protocol.Message{
			&protocol.RankQuery{Query: short, K: 10, Weights: weights(short), FetchTop: 2},
			&protocol.ScoreDocs{Query: short, Docs: []uint32{3, 999}},
			&protocol.ScoreDocs{Query: long, Docs: nominated, K: 4},
		}}, false},
		{"empty rank", &protocol.RankQuery{Query: "the of and", K: 5}, true},
		{"empty score weights", &protocol.ScoreDocs{Query: "!!!", Docs: []uint32{1, 999}, Weights: weights(short)}, true},
		{"rank k=0", &protocol.RankQuery{Query: short, K: 0}, true},
		{"rank bad evaluator", &protocol.RankQuery{Query: short, K: 5, Evaluator: 99}, true},
		{"score out of range", &protocol.ScoreDocs{Query: short, Docs: []uint32{3, 300}}, true},
		{"fetch out of range", &protocol.FetchDocs{Docs: []uint32{3, 300}}, true},
		{"unexpected message", &protocol.VocabReply{}, true},
	}
	for _, eval := range []search.Evaluator{search.EvalExact, search.EvalMaxScore, search.EvalWAND} {
		rows = append(rows,
			row{"rank " + eval.String(), &protocol.RankQuery{Query: long, K: 20, Evaluator: uint8(eval)}, false},
			row{"rank weights " + eval.String(), &protocol.RankQuery{Query: short, K: 7, Weights: weights(short), Evaluator: uint8(eval)}, false})
	}

	for _, n := range []int{2, 5} {
		many := servedAs(t, docs, n)
		for _, r := range rows {
			t.Run(fmt.Sprintf("%s/%d segments", r.name, n), func(t *testing.T) {
				want, wantFrame := exchange(t, one, r.req)
				got, gotFrame := exchange(t, many, r.req)
				if n == 2 {
					if sum := fmt.Sprintf("%x", sha256.Sum256(wantFrame)); sum != parityPins[r.name] {
						t.Errorf("one-segment reply frame hashes to\n%s, pinned\n%s", sum, parityPins[r.name])
					}
				}
				if r.exact {
					if !bytes.Equal(gotFrame, wantFrame) {
						t.Fatalf("reply frames differ:\n%+v\n%+v", got, want)
					}
					return
				}
				if got, want = comparable(t, many, got), comparable(t, one, want); !reflect.DeepEqual(got, want) {
					t.Fatalf("replies differ beyond their segmentation:\n%+v\n%+v", got, want)
				}
			})
		}
	}
}

// TestHelloCountsDistinctTerms pins HelloReply's vocabulary statistics
// against a brute-force count over the documents, however many segments
// hold them.
func TestHelloCountsDistinctTerms(t *testing.T) {
	docs, _ := parityCorpus(t)
	analyzer := textproc.NewAnalyzer()
	distinct := map[string]bool{}
	for _, d := range docs {
		for _, term := range analyzer.Terms(nil, d.Text) {
			distinct[term] = true
		}
	}
	var vocabBytes uint64
	for term := range distinct {
		vocabBytes += uint64(len(term)) + 8
	}
	for _, n := range []int{1, 2, 5} {
		reply, _ := exchange(t, servedAs(t, docs, n), &protocol.Hello{})
		hr := reply.(*protocol.HelloReply)
		if hr.NumTerms != uint32(len(distinct)) || hr.VocabBytes != vocabBytes {
			t.Errorf("%d segments: %d terms in %d bytes, want %d in %d", n, hr.NumTerms, hr.VocabBytes, len(distinct), vocabBytes)
		}
	}
}
