package search

// TopK is a bounded top-k selector: a size-k min-heap ordered worst-first,
// so the root is always the weakest retained item and a stream of n
// candidates is reduced to the best k in O(n log k). It replaces the
// container/heap implementations previously duplicated between Engine.Rank
// and PrunedEngine.Rank; being generic over the item type, it never boxes
// items in interface values the way heap.Push/heap.Pop do.
//
// less must order a strictly worse item before a better one, including any
// tie-breaking (for Result, lessResult: lower score first, ties broken
// toward higher doc id being less-preferred).
type TopK[T any] struct {
	less func(a, b T) bool
	k    int
	h    []T
}

// NewTopK returns a selector retaining the best k items. backing, which may
// be nil, seeds the heap storage so pooled callers avoid reallocating it.
func NewTopK[T any](k int, less func(a, b T) bool, backing []T) TopK[T] {
	return TopK[T]{less: less, k: k, h: backing[:0]}
}

// Offer considers one candidate.
func (t *TopK[T]) Offer(x T) {
	if t.k <= 0 {
		return
	}
	if len(t.h) < t.k {
		t.h = append(t.h, x)
		t.siftUp(len(t.h) - 1)
		return
	}
	if t.less(t.h[0], x) {
		t.h[0] = x
		t.siftDown(0, len(t.h))
	}
}

// Len reports how many items are currently retained.
func (t *TopK[T]) Len() int { return len(t.h) }

// Extract heap-sorts the retained items in place and returns them best
// first (exactly the order the old heap-extraction loops produced). The
// selector is left empty; the returned slice aliases its storage and is
// valid until the selector is reused.
func (t *TopK[T]) Extract() []T {
	h := t.h
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		t.siftDown(0, n)
	}
	t.h = h[:0]
	return h
}

func (t *TopK[T]) siftUp(i int) {
	h := t.h
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (t *TopK[T]) siftDown(i, n int) {
	h := t.h
	for {
		least := i
		if l := 2*i + 1; l < n && t.less(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && t.less(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
