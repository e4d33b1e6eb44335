package main

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/index"
	"teraphim/internal/librarian"
	"teraphim/internal/protocol"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/textproc"
)

// Layer probes run the workload's own queries through one layer's public
// functions, outside the query path, each call under its own span. They say
// what a layer costs on this workload's inputs when nothing else is in the
// way; the traced pass says what the whole query cost. A probe that needs
// state the workload does not have (CI candidate sets, a fetch phase)
// reports 0 there.

// probeEnv is what the probes work on.
type probeEnv struct {
	w   *workload
	in  *inputs
	rec *recorder
	fed *core.Federation
	// libs hold the engines and stores the search, index and store probes
	// read: the deployment's own librarians, or for ingest-mixed the
	// reference fleet built from the same documents.
	libs []*librarian.Librarian
	// servers answer the exchange probe: the deployment's own librarians,
	// updatable ones included.
	servers []librarian.ConnServer
	// queries are the probe set: positions in in.queries.
	queries []int32
	// reqs[i][l] is the rank-phase request query i sends librarian l (nil
	// when that librarian is not asked).
	reqs [][]protocol.Message
	// answers[i] are query i's answers from the traced pass, for the store
	// probe.
	answers [][]core.Answer
}

const (
	probePasses = 3
	probeBudget = time.Second
)

// run times fn over the probe queries under the span name, repeating the
// pass up to probePasses times within probeBudget, and returns the median
// over passes of the mean microseconds per query. One untimed call first
// lets lazy set-up inside the layer finish.
func (e *probeEnv) run(name string, fn func(i int) error) (float64, error) {
	if err := fn(0); err != nil {
		return 0, fmt.Errorf("probe %s: %w", name, err)
	}
	var passes []float64
	begin := time.Now()
	for p := 0; p < probePasses && (p == 0 || time.Since(begin) < probeBudget); p++ {
		var total time.Duration
		for i := range e.queries {
			start := time.Now()
			err := fn(i)
			end := time.Now()
			if err != nil {
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
			e.rec.add(-1, int32(i), name, "", start, end)
			total += end.Sub(start)
		}
		passes = append(passes, float64(total.Nanoseconds())/1e3/float64(len(e.queries)))
	}
	return median(passes), nil
}

func (e *probeEnv) query(i int) string { return e.in.queries[e.queries[i]] }

// weights are the term weights librarians rank query i with: the
// receptionist's global ones, or none under CN (local statistics).
func (e *probeEnv) weights(i int) (map[string]float64, error) {
	if e.w.mode == core.ModeCN {
		return nil, nil
	}
	return e.fed.GlobalWeights(e.query(i))
}

// buildRequests prepares the rank-phase request of every probe query for
// every librarian, the way the receptionist's query path would.
func (e *probeEnv) buildRequests() error {
	e.reqs = make([][]protocol.Message, len(e.queries))
	for i := range e.queries {
		q := e.query(i)
		weights, err := e.weights(i)
		if err != nil {
			return err
		}
		e.reqs[i] = make([]protocol.Message, len(e.servers))
		if e.w.mode != core.ModeCI {
			for l := range e.servers {
				e.reqs[i][l] = &protocol.RankQuery{Query: q, K: topK, Weights: weights}
			}
			continue
		}
		// CI: rank groups centrally, expand the best k', partition by owner.
		scratch := search.GetScratch()
		groups, _, err := e.fed.CentralIndex().RankGroupsEval(scratch, q, core.DefaultKPrime, search.EvalExact)
		scratch.Release()
		if err != nil {
			return err
		}
		byLib := make(map[string][]uint32)
		for _, g := range e.fed.CentralIndex().Expand(groups) {
			name, local, err := e.fed.ResolveGlobal(g)
			if err != nil {
				return err
			}
			byLib[name] = append(byLib[name], local)
		}
		for l, s := range e.servers {
			if docs := byLib[s.Name()]; len(docs) > 0 {
				sort.Slice(docs, func(a, b int) bool { return docs[a] < docs[b] })
				e.reqs[i][l] = &protocol.ScoreDocs{Query: q, Docs: docs, Weights: weights}
			}
		}
	}
	return nil
}

// all runs every probe and returns their metrics.
func (e *probeEnv) all() (map[string]float64, error) {
	if err := e.buildRequests(); err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	var err error

	analyzer := textproc.NewAnalyzer()
	var terms []string
	if m["textproc.analyze_us"], err = e.run("textproc.analyze", func(i int) error {
		terms = analyzer.Terms(terms[:0], e.query(i))
		return nil
	}); err != nil {
		return nil, err
	}
	if m["core.weights_us"], err = e.run("core.weights", func(i int) error {
		_, err := e.fed.GlobalWeights(e.query(i))
		return err
	}); err != nil {
		return nil, err
	}
	if m["selection.select_us"], err = e.run("selection.select", func(i int) error {
		_, err := e.fed.SelectLibrarians(e.query(i), 2)
		return err
	}); err != nil {
		return nil, err
	}
	if err := e.frames(m); err != nil {
		return nil, err
	}
	if err := e.exchange(m); err != nil {
		return nil, err
	}
	if err := e.kernel(m); err != nil {
		return nil, err
	}
	if err := e.scan(m); err != nil {
		return nil, err
	}
	if err := e.fetch(m); err != nil {
		return nil, err
	}
	return m, nil
}

// exchange drives one rank exchange per asked librarian with a bare
// protocol.Writer/Reader straight into ServeConn over a zero-latency pipe:
// request decode, evaluation and reply encode, with no receptionist, pool or
// link. It reports microseconds per exchange.
func (e *probeEnv) exchange(m map[string]float64) error {
	type peer struct {
		wr protocol.Writer
		rd protocol.Reader
	}
	peers := make([]*peer, len(e.servers))
	for l, s := range e.servers {
		client, hangUp := dialDirect(s)
		defer hangUp()
		peers[l] = &peer{wr: protocol.Writer{W: client}, rd: protocol.Reader{R: client}}
	}
	exchanges := 0
	perQuery, err := e.run("librarian.exchange", func(i int) error {
		for l, req := range e.reqs[i] {
			if req == nil {
				continue
			}
			if _, err := peers[l].wr.Write(0, req); err != nil {
				return err
			}
			reply, _, _, err := peers[l].rd.ReadReuse()
			if err != nil {
				return err
			}
			if _, ok := reply.(*protocol.RankReply); !ok {
				return fmt.Errorf("librarian %s answered %v", e.servers[l].Name(), reply.Type())
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range e.reqs {
		for _, req := range e.reqs[i] {
			if req != nil {
				exchanges++
			}
		}
	}
	m["librarian.exchange_us"] = perQuery * float64(len(e.queries)) / float64(exchanges)
	return nil
}

// frameIters is how many times the frame probe encodes or decodes its
// captured pair inside one span: a frame takes well under a microsecond.
const frameIters = 200

// frames times AppendFrame and Reader.ReadReuse on each probe query's
// request to its first asked librarian and that librarian's reply, in the
// tagged framing. It reports nanoseconds per request+reply pair.
func (e *probeEnv) frames(m map[string]float64) error {
	pairs := make([][2]protocol.Message, len(e.queries))
	for i := range e.queries {
		for l, req := range e.reqs[i] {
			if req == nil {
				continue
			}
			reply, err := directReply(e.servers[l], req)
			if err != nil {
				return err
			}
			pairs[i] = [2]protocol.Message{req, reply}
			break
		}
		if pairs[i][0] == nil {
			return fmt.Errorf("probe query %d asks no librarian", i)
		}
	}
	var buf []byte
	enc, err := e.run("protocol.frame_encode", func(i int) error {
		for n := 0; n < frameIters; n++ {
			for _, msg := range pairs[i] {
				var err error
				if buf, err = protocol.AppendFrame(buf[:0], 7, true, msg); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	encoded := make([][]byte, len(pairs))
	for i, pair := range pairs {
		for _, msg := range pair {
			if encoded[i], err = protocol.AppendFrame(encoded[i], 7, true, msg); err != nil {
				return err
			}
		}
	}
	src := &bytes.Reader{}
	rd := &protocol.Reader{R: src, Tagged: true}
	dec, err := e.run("protocol.frame_decode", func(i int) error {
		for n := 0; n < frameIters; n++ {
			src.Reset(encoded[i])
			for range pairs[i] {
				if _, _, _, err := rd.ReadReuse(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["protocol.frame_encode_ns"] = enc * 1e3 / frameIters
	m["protocol.frame_decode_ns"] = dec * 1e3 / frameIters
	return nil
}

// dialDirect connects to s over a zero-latency pipe with nothing in between;
// hangUp closes the connection and waits for the serving goroutine.
func dialDirect(s librarian.ConnServer) (client net.Conn, hangUp func()) {
	client, server := simnet.Pipe(simnet.LinkConfig{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.ServeConn(server) // a broken session shows as the probe's own read error
		server.Close()
	}()
	return client, func() { client.Close(); <-done }
}

// directReply performs one exchange with s over a throwaway pipe and returns
// a reply the caller owns.
func directReply(s librarian.ConnServer, req protocol.Message) (protocol.Message, error) {
	client, hangUp := dialDirect(s)
	defer hangUp()
	if _, err := protocol.WriteMessage(client, req); err != nil {
		return nil, err
	}
	reply, _, err := protocol.ReadMessage(client)
	return reply, err
}

// kernel times the rank kernel under each evaluator on every librarian's
// engine (summed per query: the CPU a query costs the fleet), and ScoreDocs
// on the CI candidate sets.
func (e *probeEnv) kernel(m map[string]float64) error {
	scratch := search.NewScratch()
	for _, ev := range []search.Evaluator{search.EvalExact, search.EvalMaxScore, search.EvalWAND} {
		ev := ev
		us, err := e.run("search.rank_"+ev.String(), func(i int) error {
			weights, err := e.weights(i)
			if err != nil {
				return err
			}
			for _, lib := range e.libs {
				if _, _, err := lib.Engine().RankWithEval(scratch, e.query(i), topK, weights, ev); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m["search.rank_us_"+ev.String()] = us
	}
	m["search.scoredocs_us"] = 0
	if e.w.mode != core.ModeCI {
		return nil
	}
	us, err := e.run("search.scoredocs", func(i int) error {
		for l, req := range e.reqs[i] {
			sd, ok := req.(*protocol.ScoreDocs)
			if !ok {
				continue
			}
			if _, _, err := e.libs[l].Engine().ScoreDocsWith(scratch, sd.Query, sd.Docs, sd.Weights); err != nil {
				return err
			}
		}
		return nil
	})
	m["search.scoredocs_us"] = us
	return err
}

// scan walks every inverted list the query touches, on every librarian, with
// TermCursor.NextBlock: the decode cost under the kernel, in nanoseconds per
// posting.
func (e *probeEnv) scan(m map[string]float64) error {
	analyzer := textproc.NewAnalyzer()
	var cur index.TermCursor
	perQuery := make([]int, len(e.queries)) // postings walked for query i
	us, err := e.run("index.scan", func(i int) error {
		perQuery[i] = 0
		seen := make(map[string]bool)
		for _, term := range analyzer.Terms(nil, e.query(i)) {
			if seen[term] {
				continue
			}
			seen[term] = true
			for _, lib := range e.libs {
				ix := lib.Engine().Index()
				if ix.TermFreq(term) == 0 {
					continue
				}
				if err := ix.ResetCursor(&cur, term); err != nil {
					return err
				}
				for blk := cur.NextBlock(); blk != nil; blk = cur.NextBlock() {
					perQuery[i] += len(blk)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	postings := 0
	for _, n := range perQuery {
		postings += n
	}
	m["index.scan_ns_per_posting"] = 0
	if postings > 0 {
		m["index.scan_ns_per_posting"] = us * 1e3 * float64(len(e.queries)) / float64(postings)
	}
	return nil
}

// fetch reads and decompresses the documents the traced queries returned,
// straight from the owning librarian's store.
func (e *probeEnv) fetch(m map[string]float64) error {
	m["store.fetch_us_per_doc"] = 0
	if !e.w.opts.Fetch {
		return nil
	}
	byName := make(map[string]*librarian.Librarian, len(e.libs))
	for _, lib := range e.libs {
		byName[lib.Name()] = lib
	}
	us, err := e.run("store.fetch", func(i int) error {
		for _, a := range e.answers[i] {
			st := byName[a.Librarian].Store()
			blob, err := st.FetchCompressed(a.LocalDoc)
			if err != nil {
				return err
			}
			if _, err := st.Decompress(blob); err != nil {
				return err
			}
		}
		return nil
	})
	m["store.fetch_us_per_doc"] = us / topK
	return err
}
