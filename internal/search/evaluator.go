package search

import (
	"errors"
	"fmt"
)

// ErrUnknownEvaluator is returned when an Evaluator value is none of the
// declared constants — a typo'd option or a corrupt/newer wire value.
var ErrUnknownEvaluator = errors.New("search: unknown evaluator")

// Evaluator selects the ranked-evaluation algorithm the scoring kernel runs.
// All three produce identical rankings — MaxScore and WAND are rank-safe:
// they prune with exact per-term upper bounds (w_qt·log(MaxFDT_t+1), which
// no posting's contribution can exceed) and therefore return the same
// documents with the same scores as exhaustive evaluation, only touching
// far fewer postings and scoring far fewer candidates. That safety is what
// lets dynamic pruning run everywhere the exact kernel does — including
// CI-mode nomination, where k'·G candidates must be found cheaply — unlike
// the Persin-style thresholds of the frequency-sorted experiment, which
// trade effectiveness.
//
// The zero value is EvalExact, so every pre-existing call site and wire
// frame keeps its behaviour; the numeric values are also the wire encoding
// carried by protocol.RankQuery.
type Evaluator uint8

const (
	// EvalExact is exhaustive term-at-a-time evaluation over document-sorted
	// lists — the seed kernel.
	EvalExact Evaluator = iota
	// EvalMaxScore partitions query terms into essential and non-essential
	// lists by their score caps (Turtle & Flood): candidates come from
	// essential lists only, and non-essential lists are probed via skip-seek
	// just for candidates whose bound still beats the top-k threshold.
	EvalMaxScore
	// EvalWAND evaluates document-at-a-time with pivot selection (Broder et
	// al.): cursors stay sorted by current document, and the pivot — the
	// first document whose cumulative caps could beat the threshold — is the
	// only one fully scored; cursors before it skip-seek straight to it.
	EvalWAND

	evalCount // one past the last valid evaluator
)

// Valid reports whether e is a declared evaluator.
func (e Evaluator) Valid() bool { return e < evalCount }

// String returns the evaluator's option-spelling name.
func (e Evaluator) String() string {
	switch e {
	case EvalExact:
		return "exact"
	case EvalMaxScore:
		return "maxscore"
	case EvalWAND:
		return "wand"
	default:
		return fmt.Sprintf("evaluator(%d)", uint8(e))
	}
}

// ParseEvaluator maps the option spellings ("exact", "maxscore", "wand")
// back to Evaluator values, for flag and config plumbing.
func ParseEvaluator(s string) (Evaluator, error) {
	switch s {
	case "exact", "":
		return EvalExact, nil
	case "maxscore":
		return EvalMaxScore, nil
	case "wand":
		return EvalWAND, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownEvaluator, s)
	}
}
