package core

import (
	"fmt"

	"teraphim/internal/search"
	"teraphim/internal/store"
)

// MonoServer is the MS baseline: the whole collection in one index on one
// machine, queried directly with no network. Its Query resolves Options
// exactly as Pool.Query does, so experiments can drive every mode uniformly
// and a value one rejects the other rejects too.
type MonoServer struct {
	engine *search.Engine
	docs   *store.Store
	// keys maps local doc id to the distributed global key
	// ("subcollection:localid") so MS runs are comparable with distributed
	// runs in the evaluation.
	keys []string
}

// NewMonoServer wraps an engine and document store. keys may be nil when
// run-file compatibility with distributed modes is not needed; Answer.Key
// then falls back to "MS:<doc>".
func NewMonoServer(engine *search.Engine, docs *store.Store, keys []string) (*MonoServer, error) {
	if engine == nil {
		return nil, fmt.Errorf("core: engine is required")
	}
	if docs != nil && engine.Index().NumDocs() != docs.NumDocs() {
		return nil, fmt.Errorf("core: index has %d docs, store has %d", engine.Index().NumDocs(), docs.NumDocs())
	}
	if keys != nil && uint32(len(keys)) != engine.Index().NumDocs() {
		return nil, fmt.Errorf("core: %d keys for %d docs", len(keys), engine.Index().NumDocs())
	}
	return &MonoServer{engine: engine, docs: docs, keys: keys}, nil
}

// Engine exposes the underlying search engine.
func (m *MonoServer) Engine() *search.Engine { return m.engine }

// Query evaluates the query locally. The trace contains only central
// statistics (no network calls).
func (m *MonoServer) Query(query string, k int, opts Options) (*Result, error) {
	pl, err := resolve(nil, ModeMS, k, opts)
	if err != nil {
		return nil, err
	}
	s := search.GetScratch()
	results, stats, err := search.RankParts(nil, s, []search.Part{{Engine: m.engine}}, query, pl.k, nil)
	s.Release()
	if err != nil {
		return nil, fmt.Errorf("core: mono-server rank: %w", err)
	}
	res := &Result{}
	res.Trace.Mode = ModeMS
	res.Trace.CentralStats = stats
	res.Trace.MergeCandidates = len(results)
	res.Answers = make([]Answer, 0, len(results))
	for _, sr := range results {
		if sr.Score <= 0 {
			continue
		}
		a := Answer{GlobalDoc: sr.Doc, LocalDoc: sr.Doc, Score: sr.Score, Librarian: "MS"}
		if m.keys != nil {
			a.Librarian, a.LocalDoc = splitKey(m.keys[sr.Doc])
		}
		res.Answers = append(res.Answers, a)
	}
	if pl.fetch && m.docs != nil {
		for i := range res.Answers {
			blob, err := m.docs.FetchCompressed(res.Answers[i].GlobalDoc)
			if err != nil {
				return nil, fmt.Errorf("core: mono-server fetch: %w", err)
			}
			doc, err := m.docs.Fetch(res.Answers[i].GlobalDoc)
			if err != nil {
				return nil, fmt.Errorf("core: mono-server fetch: %w", err)
			}
			res.Answers[i].Title = doc.Title
			res.Answers[i].Text = doc.Text
			res.Trace.LocalDocsFetched++
			res.Trace.LocalDocBytes += len(blob)
		}
	}
	return res, nil
}

// splitKey parses "name:localid"; malformed keys map to ("MS", 0)-style
// fallbacks rather than failing a query.
func splitKey(key string) (string, uint32) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == ':' {
			var local uint32
			if _, err := fmt.Sscanf(key[i+1:], "%d", &local); err != nil {
				return key, 0
			}
			return key[:i], local
		}
	}
	return key, 0
}
