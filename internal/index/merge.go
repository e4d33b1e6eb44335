package index

import "fmt"

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
// It folds the inputs' lists through FoldGroups, each document its own
// group: the smallest pending term is decoded from every input that holds
// it, input by input. Since the inputs tile the document space in order, the
// decoded lists concatenate into a sorted list, which is recompressed under
// the merged collection's Golomb parameter. One term's postings are in
// memory at a time.
func Merge(subIndexes []*Index, offsets []uint32, totalDocs uint32, opts ...BuilderOption) (*Index, error) {
	if len(subIndexes) == 0 {
		return nil, fmt.Errorf("index: nothing to merge")
	}
	if len(subIndexes) != len(offsets) {
		return nil, fmt.Errorf("index: %d indexes but %d offsets", len(subIndexes), len(offsets))
	}
	var covered uint64
	listBytes := 0
	for i, ix := range subIndexes {
		if uint64(offsets[i]) != covered {
			return nil, fmt.Errorf("index: input %d starts at doc %d, the inputs before it end at %d",
				i, offsets[i], covered)
		}
		covered += uint64(ix.NumDocs())
		listBytes += len(ix.arena)
	}
	if covered != uint64(totalDocs) {
		return nil, fmt.Errorf("index: inputs cover %d docs, collection has %d", covered, totalDocs)
	}

	// One pass over the dictionaries sizes the result: its entries, its
	// terms and its skip tables. Its lists take about what the inputs' do.
	skipIvl := skipIntervalOf(opts)
	terms, termBytes, skips := 0, 0, 0
	EachTerm(subIndexes, func(term string, ft uint32) {
		terms, termBytes, skips = terms+1, termBytes+len(term), skips+2*numSkips(ft, skipIvl)
	})
	merged := newIndex(totalDocs, skipIvl, terms, termBytes, listBytes, skips)
	merged.weights, merged.lens = make([]float32, totalDocs), make([]uint32, totalDocs)
	for i, ix := range subIndexes {
		copy(merged.weights[offsets[i]:], ix.weights)
		copy(merged.lens[offsets[i]:], ix.lens)
	}

	srcs := make([]GroupSource, 0, 8) // on the stack for up to eight inputs
	for i, ix := range subIndexes {
		srcs = append(srcs, ix.Groups(offsets[i], 1, "", ""))
	}
	err := FoldGroups(srcs, func(term string, list []Posting) error {
		if err := merged.appendList(term, list); err != nil {
			return fmt.Errorf("index: merge term %q: %w", term, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return merged.seal(), nil
}
