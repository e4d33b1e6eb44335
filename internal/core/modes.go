package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"teraphim/internal/protocol"
	"teraphim/internal/search"
)

// queryCN implements Central Nothing: every librarian (or, under top-R
// selection, the R most promising) ranks with its own local statistics; the
// receptionist merges the kS results with the resolved fusion strategy
// (face value by default, as in the paper). CN needs no central state —
// except when TopR is set, which requires SetupVocabulary for the
// collection statistics the ranker scores with.
func (e *exec) queryCN(res *Result, query string) error {
	names := e.fed.Librarians()
	if e.topR > 0 {
		vs := e.fed.vocab.Load()
		terms := e.fed.analyzer.Terms(nil, query)
		selected, err := e.selectTopR(&res.Trace, vs, terms, nil)
		if err != nil {
			return err
		}
		names = selected
	}
	res.Trace.LibrariansAsked = len(names)
	if len(names) == 0 {
		res.Answers = nil
		return nil
	}
	top := e.fetchTop(len(names))
	replies, err := e.callParallel(&res.Trace, PhaseRank, names, func(string) protocol.Message {
		return &protocol.RankQuery{Query: query, K: uint32(e.k), FetchTop: top, Compressed: e.compressed}
	})
	if err != nil {
		return err
	}
	return e.collate(res, replies)
}

// queryCV implements Central Vocabulary: the receptionist computes global
// term weights from its merged vocabulary, skips librarians holding none of
// the query terms, and ships the weights with the query. Librarian scores
// are then exactly the mono-server scores.
func (e *exec) queryCV(res *Result, query string) error {
	analyzeStart := time.Now()
	// The vocab snapshot is loaded once so weighting, eligibility and top-R
	// selection agree even if a re-setup lands mid-query.
	vs := e.fed.vocab.Load()
	weights, err := e.fed.weigh(vs, query)
	if err != nil {
		return err
	}
	// Eligibility: a librarian whose vocabulary contains none of the
	// weighted terms cannot contribute and is not contacted. A term's row
	// holds every librarian's f_t, so one lookup per term serves them all,
	// and the walk stops once every librarian is in.
	var eligible []int // ascending
	for term := range weights {
		for i, ft := range vs.vocab.Row(term)[2:] {
			if j, found := slices.BinarySearch(eligible, i); ft > 0 && !found {
				eligible = slices.Insert(eligible, j, i)
			}
		}
		if len(eligible) == len(e.fed.libs) {
			break
		}
	}
	res.Trace.Stages.Analyze += time.Since(analyzeStart)
	names := make([]string, 0, len(eligible))
	if e.topR > 0 && len(eligible) > 0 {
		terms := make([]string, 0, len(weights))
		for t := range weights {
			terms = append(terms, t)
		}
		selected, err := e.selectTopR(&res.Trace, vs, terms, eligible)
		if err != nil {
			return err
		}
		names = selected
	} else {
		for _, i := range eligible {
			names = append(names, e.fed.libs[i].name)
		}
	}
	res.Trace.LibrariansAsked = len(names)
	if len(names) == 0 {
		res.Answers = nil
		return nil
	}
	top := e.fetchTop(len(names))
	replies, err := e.callParallel(&res.Trace, PhaseRank, names, func(string) protocol.Message {
		return &protocol.RankQuery{Query: query, K: uint32(e.k), Weights: weights, FetchTop: top, Compressed: e.compressed}
	})
	if err != nil {
		return err
	}
	return e.collate(res, replies)
}

// queryCI implements Central Index: rank groups on the central grouped
// index, expand the best k' groups into document ids, have the owning
// librarians score exactly those documents with global weights, and merge.
func (e *exec) queryCI(res *Result, query string) error {
	central := e.fed.CentralIndex()
	if central == nil {
		return errors.New("core: SetupCentralIndex has not run")
	}
	analyzeStart := time.Now()
	weights, err := e.fed.GlobalWeights(query)
	if err != nil {
		return err
	}
	scratch := search.GetScratch()
	groups, centralStats, err := central.RankGroups(scratch, query, e.kPrime)
	scratch.Release()
	if err != nil {
		return err
	}
	res.Trace.CentralStats = centralStats

	globalDocs := central.Expand(groups)
	// Partition expanded documents by owning librarian (index into fed.libs).
	byLib := make([][]uint32, len(e.fed.libs))
	for _, g := range globalDocs {
		li, err := e.fed.owner(g)
		if err != nil {
			return err
		}
		byLib[li.idx] = append(byLib[li.idx], g-li.offset)
	}
	var names []string
	var owners []int
	for i, docs := range byLib {
		if len(docs) > 0 {
			slices.Sort(docs)
			names = append(names, e.fed.libs[i].name)
			owners = append(owners, i)
		}
	}
	res.Trace.Stages.Analyze += time.Since(analyzeStart)
	if e.topR > 0 && len(names) > 0 {
		// Top-R selection over the owners of expanded candidates: documents
		// at unselected librarians are dropped from the score phase, trading
		// recall for fan-out exactly as in CN/CV.
		terms := make([]string, 0, len(weights))
		for t := range weights {
			terms = append(terms, t)
		}
		selected, err := e.selectTopR(&res.Trace, e.fed.vocab.Load(), terms, owners)
		if err != nil {
			return err
		}
		names = selected
	}
	res.Trace.LibrariansAsked = len(names)
	if len(names) == 0 {
		res.Answers = nil
		return nil
	}
	top := e.fetchTop(len(names))
	// K: the global top k lies within the librarians' own top k. A two-round
	// pool asks for every nominated score instead, as the paper's protocol
	// does.
	k := uint32(e.k)
	if e.pool.twoRound {
		k = 0
	}
	replies, err := e.callParallel(&res.Trace, PhaseRank, names, func(name string) protocol.Message {
		return &protocol.ScoreDocs{Query: query, Docs: byLib[e.fed.byName[name].idx], Weights: weights,
			K: k, FetchTop: top, Compressed: e.compressed}
	})
	if err != nil {
		return err
	}
	return e.collate(res, replies)
}

// collate merges per-librarian rankings into the global top k under the
// plan's fusion strategy — always face value in CV and CI, whose weights
// make scores globally comparable.
func (e *exec) collate(res *Result, replies map[string]protocol.Message) error {
	mergeStart := time.Now()
	defer func() { res.Trace.Stages.Merge += time.Since(mergeStart) }()
	lists := make([][]Answer, len(e.fed.libs))
	total := 0
	for name, reply := range replies {
		rr, ok := reply.(*protocol.RankReply)
		if !ok {
			return fmt.Errorf("core: librarian %q answered rank phase with %v", name, reply.Type())
		}
		li := e.fed.byName[name]
		answers := make([]Answer, 0, len(rr.Results))
		for _, sd := range rr.Results {
			if sd.Score <= 0 {
				continue
			}
			answers = append(answers, Answer{
				Librarian: name,
				LocalDoc:  sd.Doc,
				GlobalDoc: li.offset + sd.Doc,
				Score:     sd.Score,
			})
		}
		lists[li.idx] = answers
		if e.blobs != nil {
			for _, blob := range rr.Docs {
				e.blobs[docKey{li.idx, blob.Doc}] = blob
			}
		}
		total += len(answers)
	}
	res.Trace.MergeCandidates = total
	res.Answers = fuse(e.merge, lists, e.k)
	return nil
}
