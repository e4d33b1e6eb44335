package index

import (
	"fmt"

	"teraphim/internal/bitio"
)

// Merge combines several indexes into one, renumbering each input's
// documents by its offset — the inverse of partitioning a collection across
// librarians. offsets[i] is the global number of subIndexes[i]'s local
// document 0; inputs must tile [0, totalDocs) in ascending order, without
// gap or overlap.
//
// Merging is exact: the result is identical (postings, weights, sizes, and
// so the serialised bytes) to indexing the concatenated collection directly,
// because document weights depend only on per-document term frequencies.
//
// It is a streaming k-way merge over the inputs' sorted dictionaries: the
// smallest pending term is decoded from every input that holds it, input by
// input. Since the inputs tile the document space in order, the decoded
// lists concatenate into a sorted list, which is recompressed under the
// merged collection's Golomb parameter. One term's postings are in memory at
// a time.
func Merge(subIndexes []*Index, offsets []uint32, totalDocs uint32, opts ...BuilderOption) (*Index, error) {
	if len(subIndexes) == 0 {
		return nil, fmt.Errorf("index: nothing to merge")
	}
	if len(subIndexes) != len(offsets) {
		return nil, fmt.Errorf("index: %d indexes but %d offsets", len(subIndexes), len(offsets))
	}
	var covered uint64
	maxTerms := 0
	for i, ix := range subIndexes {
		if uint64(offsets[i])+uint64(ix.NumDocs()) > uint64(totalDocs) {
			return nil, fmt.Errorf("index: input %d (offset %d, %d docs) exceeds collection of %d",
				i, offsets[i], ix.NumDocs(), totalDocs)
		}
		if uint64(offsets[i]) != covered {
			return nil, fmt.Errorf("index: input %d starts at doc %d, the inputs before it end at %d",
				i, offsets[i], covered)
		}
		covered += uint64(ix.NumDocs())
		maxTerms = max(maxTerms, len(ix.entries))
	}
	if covered != uint64(totalDocs) {
		return nil, fmt.Errorf("index: inputs cover %d docs, collection has %d", covered, totalDocs)
	}

	skipIvl := skipIntervalOf(opts)
	merged := &Index{
		entries: make([]termEntry, 0, maxTerms),
		byTerm:  make(map[string]int, maxTerms),
		weights: make([]float32, totalDocs),
		lens:    make([]uint32, totalDocs),
		numDocs: totalDocs,
		skipIvl: skipIvl,
	}
	for i, ix := range subIndexes {
		copy(merged.weights[offsets[i]:], ix.weights)
		copy(merged.lens[offsets[i]:], ix.lens)
	}

	next := make([]int, len(subIndexes)) // each input's first unmerged entry
	cursors := make([]TermCursor, len(subIndexes))
	var list []Posting
	w := bitio.NewWriter(4096)
	for {
		term, found := "", false
		for i, ix := range subIndexes {
			if next[i] < len(ix.entries) {
				if t := ix.entries[next[i]].term; !found || t < term {
					term, found = t, true
				}
			}
		}
		if !found {
			return merged, nil
		}
		list = list[:0]
		for i, ix := range subIndexes {
			if next[i] == len(ix.entries) || ix.entries[next[i]].term != term {
				continue
			}
			e := &ix.entries[next[i]]
			next[i]++
			c, start := &cursors[i], len(list)
			ix.resetCursorEntry(c, e)
			for blk := c.NextBlock(); blk != nil; blk = c.NextBlock() {
				for _, p := range blk {
					list = append(list, Posting{Doc: offsets[i] + p.Doc, FDT: p.FDT})
				}
			}
			if got := len(list) - start; uint32(got) != e.ft {
				return nil, fmt.Errorf("index: merge term %q: input %d decoded %d of %d postings", term, i, got, e.ft)
			}
			// compressList rejects a list that does not ascend, so an input's
			// last posting inside its own range keeps the whole list inside.
			if last := c.Posting().Doc; len(list) > start && last >= ix.numDocs {
				return nil, fmt.Errorf("index: merge term %q: posting doc %d outside input %d of %d docs", term, last, i, ix.numDocs)
			}
		}
		entry, err := compressList(w, term, list, totalDocs, skipIvl)
		if err != nil {
			return nil, fmt.Errorf("index: merge term %q: %w", term, err)
		}
		merged.byTerm[term] = len(merged.entries)
		merged.entries = append(merged.entries, entry)
		merged.numPtrs += uint64(len(list))
		merged.postings += uint64(len(entry.postings))
	}
}
