package core

import (
	"errors"
	"fmt"
	"sort"
)

// MergeStrategy selects how the receptionist collates per-librarian
// rankings in CN operation, where similarity scores are computed from
// *local* statistics and are not strictly comparable across librarians.
// The paper merges at face value ("it has no basis for perturbing either
// the numeric values or the ordering"); the alternatives below are the
// classic collection-fusion baselines of Voorhees et al. (TREC-3/4),
// which need no knowledge of how scores were computed.
type MergeStrategy int

// Merge strategies.
const (
	// MergeFaceValue trusts librarian scores as-is (the paper's CN merge).
	MergeFaceValue MergeStrategy = iota + 1
	// MergeRoundRobin interleaves rankings by local rank: everyone's
	// first answer, then everyone's second, and so on. Scores are ignored;
	// librarians are visited in global-numbering order within each rank.
	MergeRoundRobin
	// MergeNormalized min–max normalises each librarian's scores to [0,1]
	// before a face-value merge, damping cross-collection scale skew.
	MergeNormalized
)

func (s MergeStrategy) String() string {
	switch s {
	case MergeFaceValue:
		return "face-value"
	case MergeRoundRobin:
		return "round-robin"
	case MergeNormalized:
		return "normalized"
	default:
		return fmt.Sprintf("MergeStrategy(%d)", int(s))
	}
}

// ErrUnknownMergeStrategy is returned for an Options.Merge value that names
// no defined strategy. Rejecting it up front — rather than letting fuse's
// default arm treat it as face value — keeps the result cache from
// fragmenting across spellings of identical behaviour (MergeStrategy(42)
// would otherwise evaluate like MergeFaceValue but cache under its own key).
var ErrUnknownMergeStrategy = errors.New("core: unknown merge strategy")

// fuse collates per-librarian answer lists (each already sorted by
// decreasing local score) into a global top-k under the given strategy.
// lists is keyed by librarian name; order supplies deterministic librarian
// sequencing. The returned slice is freshly allocated at exactly its
// length: it never shares a backing array with the per-librarian lists or
// retains dropped candidates in hidden capacity, so callers (and the result
// cache) may mutate or hold it freely.
func fuse(strategy MergeStrategy, lists map[string][]Answer, order []string, k int) []Answer {
	switch strategy {
	case MergeRoundRobin:
		return fuseRoundRobin(lists, order, k)
	case MergeNormalized:
		return fuseFaceValue(normalizeLists(lists), k)
	default:
		return fuseFaceValue(lists, k)
	}
}

func fuseFaceValue(lists map[string][]Answer, k int) []Answer {
	var merged []Answer
	for _, answers := range lists {
		merged = append(merged, answers...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].GlobalDoc < merged[j].GlobalDoc
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return clipAnswers(merged)
}

func fuseRoundRobin(lists map[string][]Answer, order []string, k int) []Answer {
	var merged []Answer
	for rank := 0; len(merged) < k; rank++ {
		took := false
		for _, name := range order {
			answers := lists[name]
			if rank < len(answers) {
				merged = append(merged, answers[rank])
				took = true
				if len(merged) == k {
					break
				}
			}
		}
		if !took {
			break
		}
	}
	return clipAnswers(merged)
}

// clipAnswers re-allocates answers at exactly len(answers): truncation via
// merged[:k] keeps the dropped candidates alive in hidden capacity, where a
// caller's append would silently overwrite them — and, once results are
// cached and shared, silently corrupt another caller's view.
func clipAnswers(answers []Answer) []Answer {
	if answers == nil || len(answers) == cap(answers) {
		return answers
	}
	out := make([]Answer, len(answers))
	copy(out, answers)
	return out
}

// normalizeLists rescales each librarian's scores to [0,1] by min–max; a
// single-answer list maps to 1.
func normalizeLists(lists map[string][]Answer) map[string][]Answer {
	out := make(map[string][]Answer, len(lists))
	for name, answers := range lists {
		if len(answers) == 0 {
			out[name] = nil
			continue
		}
		lo, hi := answers[0].Score, answers[0].Score
		for _, a := range answers {
			if a.Score < lo {
				lo = a.Score
			}
			if a.Score > hi {
				hi = a.Score
			}
		}
		scaled := make([]Answer, len(answers))
		for i, a := range answers {
			if hi > lo {
				a.Score = (a.Score - lo) / (hi - lo)
			} else {
				a.Score = 1
			}
			scaled[i] = a
		}
		out[name] = scaled
	}
	return out
}
