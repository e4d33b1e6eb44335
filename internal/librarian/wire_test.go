package librarian

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"

	"teraphim/internal/protocol"
	"teraphim/internal/store"
)

// helloSession opens a session with lib whose first frame is a Hello at
// version and returns the client conn plus the HelloReply. Closing the conn
// ends the session.
func helloSession(t *testing.T, lib *Librarian, version uint32) (net.Conn, *protocol.HelloReply) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = lib.ServeConn(server)
	}()
	t.Cleanup(func() {
		client.Close()
		server.Close()
		<-done
	})
	if _, err := protocol.WriteMessage(client, &protocol.Hello{Version: version}); err != nil {
		t.Fatal(err)
	}
	reply, _, err := protocol.ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	hr, ok := reply.(*protocol.HelloReply)
	if !ok {
		t.Fatalf("Hello answered with %T", reply)
	}
	if hr.Version != protocol.Version {
		t.Fatalf("Hello at version %d answered at %d, want this build's %d", version, hr.Version, protocol.Version)
	}
	return client, hr
}

// taggedSession opens a session at protocol.Version with lib. Callers speak
// tagged frames on the returned conn.
func taggedSession(t *testing.T, lib *Librarian) net.Conn {
	t.Helper()
	client, _ := helloSession(t, lib, protocol.Version)
	return client
}

// TestNegotiateTaggedSession checks the version handshake and that a tagged
// session demultiplexes by tag: two requests written back to back each get
// a reply carrying their own tag, whatever the completion order.
func TestNegotiateTaggedSession(t *testing.T) {
	lib := buildTestLibrarian(t)
	client := taggedSession(t, lib)

	wr := &protocol.Writer{W: client, Tagged: true}
	rd := &protocol.Reader{R: client, Tagged: true}
	want := map[uint32]string{5: "cats", 9: "dogs"}
	for tag, q := range want {
		if _, err := wr.Write(tag, &protocol.RankQuery{Query: q, K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(want); i++ {
		msg, tag, _, err := rd.Read()
		if err != nil {
			t.Fatal(err)
		}
		q, ok := want[tag]
		if !ok {
			t.Fatalf("reply with unexpected tag %d", tag)
		}
		delete(want, tag)
		rr, ok := msg.(*protocol.RankReply)
		if !ok {
			t.Fatalf("tag %d (%q): got %T", tag, q, msg)
		}
		if len(rr.Results) == 0 {
			t.Fatalf("tag %d (%q): empty results", tag, q)
		}
	}
}

// TestHelloAtOtherVersionStaysUntagged: a first-frame Hello at any version
// but this build's — the seed's empty one included — is answered with this
// build's version, and the session keeps the untagged framing.
func TestHelloAtOtherVersionStaysUntagged(t *testing.T) {
	lib := buildTestLibrarian(t)
	for _, version := range []uint32{0, protocol.Version + 1} {
		client, _ := helloSession(t, lib, version)
		if _, err := protocol.WriteMessage(client, &protocol.VocabRequest{}); err != nil {
			t.Fatal(err)
		}
		reply, _, err := protocol.ReadMessage(client)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := reply.(*protocol.VocabReply); !ok {
			t.Fatalf("version %d: VocabRequest answered with %T", version, reply)
		}
		client.Close()
	}
}

// TestHelloMidSessionNeverUpgrades checks that only a FIRST-frame Hello can
// switch the framing: a Hello at this build's version arriving later in an
// untagged session is answered in place, and the framing cannot change under
// an exchange already in flight.
func TestHelloMidSessionNeverUpgrades(t *testing.T) {
	lib := buildTestLibrarian(t)
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
	if _, err := protocol.WriteMessage(client, &protocol.VocabRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := protocol.ReadMessage(client); err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.WriteMessage(client, &protocol.Hello{Version: protocol.Version}); err != nil {
		t.Fatal(err)
	}
	reply, _, err := protocol.ReadMessage(client)
	if err != nil {
		t.Fatal(err)
	}
	if hr, ok := reply.(*protocol.HelloReply); !ok || hr.Version != protocol.Version {
		t.Fatalf("mid-session Hello answered with %+v", reply)
	}
	// Still the untagged framing afterwards.
	if _, err := protocol.WriteMessage(client, &protocol.RankQuery{Query: "cats", K: 3}); err != nil {
		t.Fatal(err)
	}
	if m, _, err := protocol.ReadMessage(client); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*protocol.RankReply); !ok {
		t.Fatalf("post-Hello RankQuery answered with %T", m)
	}
}

// TestPipeliningUnderIngest pins the capability a rebuild-and-swap design
// could not offer: a tagged session stays correct while segments land
// and merge underneath it. Every in-flight reply reflects exactly one
// published manifest, and once ingestion quiesces, a tagged ranking equals
// the seed-framing one frame for frame.
func TestPipeliningUnderIngest(t *testing.T) {
	u, err := Build("PL", synthCorpus(3), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.ConfigureIngest(IngestConfig{MinSegmentDocs: 1, MergeFanIn: 2, QueueDepth: 32}); err != nil {
		t.Fatal(err)
	}

	client := taggedSession(t, u)
	wr := &protocol.Writer{W: client, Tagged: true}
	rd := &protocol.Reader{R: client, Tagged: true}

	ctx := context.Background()
	sizes := []int{1, 2, 3, 4}
	valid := map[int]bool{0: true}
	cum := 0
	for _, s := range sizes {
		cum += s
		valid[cum] = true
	}
	ingestDone := make(chan error, 1)
	go func() {
		for bi, s := range sizes {
			batch := make([]store.Document, s)
			for j := range batch {
				batch[j] = store.Document{Title: fmt.Sprintf("p%d-%d", bi, j), Text: "ubiquitous sentinel beacon"}
			}
			if err := u.Ingest(ctx, batch); err != nil {
				ingestDone <- err
				return
			}
		}
		ingestDone <- u.Flush(ctx)
	}()

	// Keep a window of frames in flight while batches publish and merge.
	const frames = 60
	const window = 8
	pending := map[uint32]bool{}
	next := uint32(1)
	for done := 0; done < frames; {
		for len(pending) < window && next <= frames {
			if _, err := wr.Write(next, &protocol.RankQuery{Query: "sentinel", K: 1000}); err != nil {
				t.Fatal(err)
			}
			pending[next] = true
			next++
		}
		msg, tag, _, err := rd.Read()
		if err != nil {
			t.Fatal(err)
		}
		if !pending[tag] {
			t.Fatalf("reply with unknown tag %d", tag)
		}
		delete(pending, tag)
		done++
		rr, ok := msg.(*protocol.RankReply)
		if !ok {
			t.Fatalf("tag %d: got %T", tag, msg)
		}
		if !valid[len(rr.Results)] {
			t.Fatalf("tag %d saw %d sentinel docs — a mixture of manifests", tag, len(rr.Results))
		}
	}
	if err := <-ingestDone; err != nil {
		t.Fatal(err)
	}

	// Quiesced — Close also waits out the merges, which change the Stats a
	// ranking reports — tagged and seed-framing sessions must answer
	// identically.
	u.Close()
	for _, q := range []string{"sentinel", "whale reef", "beacon tide"} {
		if _, err := wr.Write(77, &protocol.RankQuery{Query: q, K: 50}); err != nil {
			t.Fatal(err)
		}
		tagged, tag, _, err := rd.Read()
		if err != nil {
			t.Fatal(err)
		}
		if tag != 77 {
			t.Fatalf("parity frame answered with tag %d", tag)
		}
		seed := callServer(t, u, &protocol.RankQuery{Query: q, K: 50})
		if !reflect.DeepEqual(tagged, seed) {
			t.Fatalf("query %q: tagged %+v vs seed %+v", q, tagged, seed)
		}
	}
}

// TestBatchPerItemFailure checks that one bad query inside a batch gets its
// own ErrorReply while its batch-mates are answered normally, with the
// item-for-item ordering preserved.
func TestBatchPerItemFailure(t *testing.T) {
	lib := buildTestLibrarian(t)
	reply := callServer(t, lib, &protocol.BatchQuery{Items: []protocol.Message{
		&protocol.RankQuery{Query: "cats", K: 3},
		&protocol.ScoreDocs{Query: "cats", Docs: []uint32{999}}, // no such doc
		&protocol.RankQuery{Query: "dogs", K: 3},
	}})
	br, ok := reply.(*protocol.BatchReply)
	if !ok {
		t.Fatalf("BatchQuery answered with %T", reply)
	}
	if len(br.Items) != 3 || len(br.Sizes) != 3 {
		t.Fatalf("BatchReply has %d items, %d sizes, want 3 each", len(br.Items), len(br.Sizes))
	}
	if rr, ok := br.Items[0].(*protocol.RankReply); !ok || len(rr.Results) == 0 {
		t.Fatalf("item 0 = %#v, want non-empty RankReply", br.Items[0])
	}
	if _, ok := br.Items[1].(*protocol.ErrorReply); !ok {
		t.Fatalf("item 1 = %T, want ErrorReply for the bad doc", br.Items[1])
	}
	if rr, ok := br.Items[2].(*protocol.RankReply); !ok || len(rr.Results) == 0 {
		t.Fatalf("item 2 = %#v, want non-empty RankReply", br.Items[2])
	}
}
