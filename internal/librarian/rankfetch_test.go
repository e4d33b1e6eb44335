package librarian

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"teraphim/internal/protocol"
)

// rankFetchServers is the same 60-document corpus three ways: built as one
// segment, served as three, and those three compacted (one segment again,
// its store the concatenation of the three under the model trained on the
// first).
func rankFetchServers(t *testing.T) map[string]*Librarian {
	t.Helper()
	static, seg := buildSegmentedPair(t, 60)
	_, compacted := buildSegmentedPair(t, 60)
	if err := compacted.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	return map[string]*Librarian{"static": static, "segmented": seg, "compacted": compacted}
}

// TestScoreDocsTopK: K trims a ScoreDocs reply to the best K in exactly the
// order the receptionist's stable sort gives the untrimmed reply.
func TestScoreDocsTopK(t *testing.T) {
	docs := make([]uint32, 0, 45)
	for d := uint32(0); d < 60; d += 4 {
		docs = append(docs, d, d+1, d+2)
	}
	weights := map[string]float64{"whale": 1.5, "reef": 0.7, "tide": 2.1}
	for name, srv := range rankFetchServers(t) {
		all := rankOf(t, callServer(t, srv, &protocol.ScoreDocs{Query: "whale reef tide", Docs: docs, Weights: weights}))
		want := append([]protocol.ScoredDoc(nil), all.Results...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Score > want[j].Score })
		for _, k := range []uint32{1, 7, 45, 1000} {
			got := rankOf(t, callServer(t, srv, &protocol.ScoreDocs{Query: "whale reef tide", Docs: docs, Weights: weights, K: k}))
			n := min(int(k), len(want))
			if len(got.Results) != n {
				t.Fatalf("%s K=%d: %d results, want %d", name, k, len(got.Results), n)
			}
			for i, r := range got.Results {
				if r != want[i] {
					t.Fatalf("%s K=%d rank %d: %+v, stable sort of the full reply has %+v", name, k, i, r, want[i])
				}
			}
			if got.Stats != all.Stats {
				t.Fatalf("%s K=%d: stats %+v, untrimmed %+v", name, k, got.Stats, all.Stats)
			}
		}
	}
}

// TestRankReplyCarriesFetchTopDocuments: the documents attached to a rank
// reply are the FetchDocs replies for its best FetchTop results, byte for
// byte, in both transfer forms and for both request types, alone or batched.
func TestRankReplyCarriesFetchTopDocuments(t *testing.T) {
	nominated := []uint32{0, 3, 9, 19, 20, 21, 38, 40, 41, 59}
	for name, srv := range rankFetchServers(t) {
		for _, compressed := range []bool{false, true} {
			for _, top := range []uint32{1, 4, 50} {
				reqs := []protocol.Message{
					&protocol.RankQuery{Query: "whale reef tide", K: 8, FetchTop: top, Compressed: compressed},
					&protocol.ScoreDocs{Query: "whale reef tide", Docs: nominated, K: 6, FetchTop: top, Compressed: compressed},
				}
				batch := callServer(t, srv, &protocol.BatchQuery{Items: reqs}).(*protocol.BatchReply)
				for i, req := range reqs {
					label := fmt.Sprintf("%s %v top=%d compressed=%v", name, req.Type(), top, compressed)
					rr := rankOf(t, callServer(t, srv, req))
					var best []uint32
					for j := 0; j < len(rr.Results) && j < int(top) && rr.Results[j].Score > 0; j++ {
						best = append(best, rr.Results[j].Doc)
					}
					if len(best) == 0 || len(rr.Docs) != len(best) {
						t.Fatalf("%s: %d documents attached for %d positive results in the top %d", label, len(rr.Docs), len(best), top)
					}
					for j, id := range best {
						// One FetchDocs per document: the reference is in
						// request order, the attached list best-first.
						fr := callServer(t, srv, &protocol.FetchDocs{Docs: []uint32{id}, Compressed: compressed}).(*protocol.FetchReply)
						if got, want := rr.Docs[j], fr.Docs[0]; got.Doc != want.Doc || got.Title != want.Title ||
							got.Compressed != want.Compressed || !bytes.Equal(got.Data, want.Data) {
							t.Fatalf("%s: attached document %d is doc %d %q (%d bytes), FetchDocs returns doc %d %q (%d bytes)",
								label, j, got.Doc, got.Title, len(got.Data), want.Doc, want.Title, len(want.Data))
						}
					}
					br := rankOf(t, batch.Items[i])
					if len(br.Docs) != len(rr.Docs) {
						t.Fatalf("%s: %d documents attached when batched, %d alone", label, len(br.Docs), len(rr.Docs))
					}
					for j := range br.Docs {
						if br.Docs[j].Doc != rr.Docs[j].Doc || !bytes.Equal(br.Docs[j].Data, rr.Docs[j].Data) {
							t.Fatalf("%s: batched attachment %d differs from the unbatched one", label, j)
						}
					}
				}
			}
		}
		// Without FetchTop the reply carries none, whatever Compressed says.
		rr := rankOf(t, callServer(t, srv, &protocol.RankQuery{Query: "whale reef tide", K: 8, Compressed: true}))
		if len(rr.Docs) != 0 {
			t.Fatalf("%s: %d documents attached to a reply that asked for none", name, len(rr.Docs))
		}
	}
}

// TestRankReplyDocumentBudget: a document that would take the reply past
// replyDocBudget is passed over and left for FetchDocs; the smaller ones
// ranked below it still ride the reply, and the total stays within budget.
func TestRankReplyDocumentBudget(t *testing.T) {
	docs := synthCorpus(30)
	// Cosine 1 for "kraken" down to a little less: the oversize document
	// ranks second, between two ordinary ones.
	docs[5].Text = "kraken"
	docs[11].Text = strings.TrimSpace(strings.Repeat("kraken ", replyDocBudget/7+1)) + " reef"
	docs[17].Text = "kraken reef whale"
	static, up := servedAs(t, docs, 1), servedAs(t, docs, 3)
	for name, srv := range map[string]*Librarian{"static": static, "segmented": up} {
		rr := rankOf(t, callServer(t, srv, &protocol.RankQuery{Query: "kraken", K: 5, FetchTop: 5}))
		if len(rr.Results) != 3 || rr.Results[0].Doc != 5 || rr.Results[1].Doc != 11 || rr.Results[2].Doc != 17 {
			t.Fatalf("%s: ranking %+v, want docs 5, 11, 17", name, rr.Results)
		}
		if len(rr.Docs) != 2 || rr.Docs[0].Doc != 5 || string(rr.Docs[0].Data) != "kraken" ||
			rr.Docs[1].Doc != 17 || string(rr.Docs[1].Data) != docs[17].Text {
			t.Fatalf("%s: %d documents attached, want docs 5 and 17 around the %d-byte doc 11", name, len(rr.Docs), len(docs[11].Text))
		}
		// The fallback still delivers it.
		fr := callServer(t, srv, &protocol.FetchDocs{Docs: []uint32{11}}).(*protocol.FetchReply)
		if len(fr.Docs) != 1 || string(fr.Docs[0].Data) != docs[11].Text {
			t.Fatalf("%s: FetchDocs did not return the oversize document", name)
		}
	}
}
