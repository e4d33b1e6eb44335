package teraphim

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lineCeilings are ROADMAP aim 2 in one number per group of packages: the
// non-test Go lines of its directories. None may grow past its ceiling; a
// change that collapses one of their parallel paths lowers the ceiling to
// what it reached, and raising one needs a line in the log below.
//
// Raise log (these ceilings lived in the Makefile's loc target until the
// pruning verdict moved them here):
//   - librarian 1756 -> 1786: Build became MG's two passes over the one
//     segment build ingest runs, and that build became one scan per
//     document with a per-call word memo (see DESIGN §14).
//   - write 2901 -> 2909: Index.OpenCursor, the lookup that reports a
//     missing term without allocating an error, so a query over small
//     segments that lack most of its terms allocates nothing per missing
//     list.
//   - write 2909 -> 3001: index/group.go, the one grouping path of the
//     Central Index (Index.Groups, FoldGroups, BuildFromGroups), which
//     librarians run to ship grouped postings instead of their whole index
//     and the receptionist runs to fold them, replacing RawBuilder; and
//     EachTerm, the k-way vocabulary pass over a librarian's segments.
//   - core 4227 -> 4324, librarian 1618 -> 1650, protocol 1569 -> 1594 and
//     write 2683 -> 2714: CI set-up ships the grouped index in parts
//     (IndexRequest's Part and Parts, the librarian's split of its
//     dictionary by cumulative f_t, Index.Groups' term bounds, and the
//     receptionist's windowed fetch and the GroupSource that folds each
//     part as it lands), and the text model's lexicon looks one-byte tokens
//     up in a table instead of hashing them.
//   - librarian 1650 -> 1675 and write 2714 -> 2750: Build became one scan
//     with a lexicon that learns (huffman.Trainer, the counts NewTextModel
//     now loops over), the scan records each document's symbols and codes
//     them once the model is known (CompressSymbols), a word's term is
//     found by its symbol, and Ingest sends and counts a batch under one
//     send slot so Flush is a watermark under concurrent writers.
//   - write 2750 -> 2809 and protocol 1594 -> 1598: an index keeps its
//     lists and skip tables in two arenas written by one appender
//     (appendList, seal), ReadFrom checks every list and skip table it
//     loads by coding it again, a text model that only decodes builds its
//     lookup tables on its first encode, and a frame reader keeps no buffer
//     past maxKeptBuf, so set-up state is what the paper counts.
//
// Falls: protocol 1598 -> 1314 (each message lists its fields once);
// protocol 1314 -> 1311 and write 2809 -> 2779 (one postings codec); core
// 4323 -> 4317, librarian 1675 -> 1670, search 1518 -> 986 and write 2779
// -> 2707 (the exact kernel is the only evaluator). The codec ceiling was
// first set at 572.
var lineCeilings = []struct {
	name string
	dirs []string
	max  int
}{
	{"internal/core", []string{"internal/core"}, 4317},
	{"internal/librarian", []string{"internal/librarian"}, 1670},
	{"internal/search", []string{"internal/search"}, 986},
	{"internal/protocol", []string{"internal/protocol"}, 1311},
	{"write path", []string{"internal/textproc", "internal/index", "internal/huffman", "internal/store"}, 2707},
	{"codec", []string{"internal/codec", "internal/bitio"}, 572},
}

// nonTestLines counts the lines of dir's non-test Go files, as wc -l does.
func nonTestLines(t *testing.T, dir string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		n += bytes.Count(src, []byte("\n"))
	}
	return n
}

// TestLineCeilings holds each group of packages to its line ceiling.
func TestLineCeilings(t *testing.T) {
	for _, c := range lineCeilings {
		n := 0
		for _, d := range c.dirs {
			n += nonTestLines(t, d)
		}
		t.Logf("%5d / %5d %s", n, c.max, c.name)
		if n > c.max {
			t.Errorf("%s has %d non-test lines, the ceiling is %d", c.name, n, c.max)
		}
	}
}
