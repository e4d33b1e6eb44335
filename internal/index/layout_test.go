package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"teraphim/internal/bitio"
	"teraphim/internal/codec"
)

// TestTermEntrySize pins the dictionary entry at f_t and two arena offsets,
// its term held by number in the index's term table: 12 bytes, where a list
// averages about 56 compressed bytes.
func TestTermEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(termEntry{}); n > 12 {
		t.Fatalf("termEntry is %d bytes, want at most 12", n)
	}
}

// arenaCorpus returns documents over exactly terms distinct terms: each
// document holds four terms of its own and 36 drawn at random.
func arenaCorpus(terms int) [][]string {
	rng := rand.New(rand.NewSource(int64(terms)))
	docs := make([][]string, terms/4)
	for d := range docs {
		for i := 0; i < 40; i++ {
			id := 4*d + i
			if i >= 4 {
				id = rng.Intn(terms)
			}
			docs[d] = append(docs[d], "t"+strconv.Itoa(id))
		}
	}
	return docs
}

// TestProducersAllocatePerArena pins what the arenas are for: Build, Merge,
// BuildFromGroups and ReadFrom make at most one allocation per 100 terms —
// lists, skip tables and entries land in arenas grown by doubling, not one
// allocation or more per term. Each producer's inputs are made outside the
// measured call.
func TestProducersAllocatePerArena(t *testing.T) {
	for _, terms := range []int{2000, 20000} {
		docs := arenaCorpus(terms)
		limit := float64(terms) / 100
		const runs = 3
		builders := make([]*Builder, runs+1) // AllocsPerRun calls once more to warm up
		for i := range builders {
			builders[i] = NewBuilder()
			for _, d := range docs {
				builders[i].Add(d)
			}
		}
		next := 0
		measure := func(name string, f func() (*Index, error)) {
			t.Helper()
			allocs := testing.AllocsPerRun(runs, func() {
				ix, err := f()
				if err != nil {
					t.Fatal(err)
				}
				if ix.NumTerms() != terms {
					t.Fatalf("%s: %d terms, want %d", name, ix.NumTerms(), terms)
				}
			})
			t.Logf("%d terms: %s makes %.0f allocations (limit %.0f)", terms, name, allocs, limit)
			if allocs > limit {
				t.Errorf("%d terms: %s makes %.0f allocations, want at most %.0f", terms, name, allocs, limit)
			}
		}
		measure("Build", func() (*Index, error) {
			next++
			return builders[next-1].Build()
		})

		half := len(docs) / 2
		a, b := buildOver(t, docs[:half]), buildOver(t, docs[half:])
		measure("Merge", func() (*Index, error) {
			return Merge([]*Index{a, b}, []uint32{0, uint32(half)}, uint32(len(docs)))
		})

		const g = 10
		srcs := make([]GroupSource, 2)
		parts := make([]listSource, 2)
		for i, ix := range []*Index{a, b} {
			src := ix.Groups(uint32(i*half), g, "", "")
			for term, _ := src.NextTerm(); term != ""; term, _ = src.NextTerm() {
				list, err := src.AppendGroups(nil)
				if err != nil {
					t.Fatal(err)
				}
				parts[i].terms, parts[i].lists = append(parts[i].terms, term), append(parts[i].lists, list)
			}
			srcs[i] = &parts[i]
		}
		// What core passes: the merged vocabulary's term count and term
		// bytes, and here the parts' postings, which bound the folded lists'.
		termBytes, postings := 0, 0
		EachTerm([]*Index{a, b}, func(term string, _ uint32) { termBytes += len(term) })
		for _, p := range parts {
			for _, l := range p.lists {
				postings += len(l)
			}
		}
		measure("BuildFromGroups", func() (*Index, error) {
			parts[0].i, parts[1].i = 0, 0
			return BuildFromGroups(srcs, uint32(len(docs)+g-1)/g, terms, termBytes, postings)
		})

		file := serialised(t, buildOver(t, docs))
		measure("ReadFrom", func() (*Index, error) { return ReadFrom(bytes.NewReader(file)) })
	}
}

// everyThird returns the index of 1,000 documents that all hold "a" and of
// which every third holds "t" too: 334 postings, so five skip entries.
func everyThird(t testing.TB) *Index {
	t.Helper()
	docs := make([][]string, 1000)
	for d := range docs {
		docs[d] = []string{"a"}
		if d%3 == 0 {
			docs[d] = append(docs[d], "t")
		}
	}
	return buildOver(t, docs)
}

// reversedSkips returns an index file whose list for "t" — 334 postings,
// every third of 1,000 documents, so five skip entries — has those entries
// in reverse order, and the index it was written from.
func reversedSkips(t testing.TB) ([]byte, *Index) {
	t.Helper()
	ix := everyThird(t)
	file := serialised(t, ix)
	// "t" sorts last, so its skip table ends the file: five last documents,
	// then five bit offsets, four bytes each.
	table := file[len(file)-40:]
	for _, half := range [][]byte{table[:20], table[20:]} {
		for i, j := 0, 16; i < j; i, j = i+4, j-4 {
			for k := 0; k < 4; k++ {
				half[i+k], half[j+k] = half[j+k], half[i+k]
			}
		}
	}
	return file, ix
}

// corruptLists returns everyThird's file with one edit to the list of "t",
// the last term, by name: each edit is one the load check must refuse. A
// list re-coded with its last frequency at 2³² keeps its skip table, which
// points before that posting.
func corruptLists(t testing.TB) map[string][]byte {
	t.Helper()
	ix := everyThird(t)
	list, skipDocs, skipBits := ix.list(ix.NumTerms() - 1)
	postings, err := ix.Cursor("t")
	if err != nil {
		t.Fatal(err)
	}
	want, err := postings.Decode(nil)
	if err != nil {
		t.Fatal(err)
	}
	used, err := codec.DecodeList(make([]Posting, len(want)), list, ix.NumDocs(), int(ix.SkipInterval()), append(skipDocs, skipBits...))
	if err != nil || used%8 == 0 {
		t.Fatalf("the list of t takes %d bits (%v); want a code with pad bits", used, err)
	}
	file := serialised(t, ix)
	// "t" sorts last: its postings length, list, skip count and table of
	// ten values end the file.
	end := len(file) - 4 - 40
	start := end - len(list)
	withList := func(list []byte) []byte {
		out := binary.LittleEndian.AppendUint32(append([]byte(nil), file[:start-4]...), uint32(len(list)))
		return append(append(out, list...), file[end:]...)
	}
	edited := func(at int, edit func([]byte)) []byte {
		out := append([]byte(nil), file...)
		edit(out[at:])
		return out
	}
	plusOne := func(b []byte) { binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)+1) }
	var w bitio.Writer
	b := codec.GolombParameter(uint64(ix.NumDocs()), uint64(len(want)))
	prev := int64(-1)
	for i, p := range want {
		fdt := uint64(p.FDT)
		if i == len(want)-1 {
			fdt = 1 << 32
		}
		if codec.PutGolomb(&w, uint64(int64(p.Doc)-prev), b) != nil || codec.PutGamma(&w, fdt) != nil {
			t.Fatal("coding the wide list")
		}
		prev = int64(p.Doc)
	}
	return map[string][]byte{
		"pad bits not zero":       edited(end-1, func(b []byte) { b[0] |= 1 }),
		"spare byte after a list": withList(append(append([]byte(nil), list...), 0)),
		"skip document one off":   edited(len(file)-40, plusOne),
		"skip bit offset one off": edited(len(file)-20, plusOne),
		"frequency of 2^32":       withList(w.Bytes()),
	}
}

// TestReadFromRejectsReversedSkips: a skip table whose entries are out of
// order is refused with errCorrupt. Loaded, it would make Advance(600) miss
// document 600, which the list holds, and CI's librarian would score that
// document 0.
func TestReadFromRejectsReversedSkips(t *testing.T) {
	file, truth := reversedSkips(t)
	c, err := truth.Cursor("t")
	if err != nil || !c.Advance(600) || c.Posting().Doc != 600 {
		t.Fatalf("true index: Advance(600) does not reach document 600 (%v)", err)
	}
	ix, err := ReadFrom(bytes.NewReader(file))
	if err == nil {
		c, _ := ix.Cursor("t")
		t.Fatalf("ReadFrom loaded a reversed skip table; there Advance(600) = %v", c.Advance(600))
	}
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("ReadFrom: %v, want an error wrapping errCorrupt", err)
	}
}

// FuzzIndexReadFrom: whatever the bytes, ReadFrom returns an error wrapping
// errCorrupt or an index that WriteTo writes back byte for byte, every list
// of which decodes to its f_t ascending postings inside the collection, and
// on which Advance finds what a linear scan finds. What it allocates stays
// in proportion to its input: no header count sizes anything unchecked.
func FuzzIndexReadFrom(f *testing.F) {
	f.Add(serialised(f, buildOver(f, [][]string{{"cat", "dog", "cat"}, {"dog"}, {"emu", "cat"}})))
	f.Add(serialised(f, buildOver(f, [][]string{{"a", "b"}, {"b"}, {"a"}, {"b", "c"}}, WithSkipInterval(1))))
	corrupt, _ := reversedSkips(f)
	f.Add(corrupt)
	lists := corruptLists(f)
	f.Add(lists["pad bits not zero"])
	f.Add(lists["spare byte after a list"])
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := ReadFrom(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("ReadFrom of %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if got := serialised(t, ix); !bytes.Equal(got, data) {
			t.Fatalf("WriteTo wrote %d bytes back for %d read", len(got), len(data))
		}
		var c TermCursor
		ix.Terms(func(term string, ft uint32) bool {
			ix.ResetCursor(&c, term)
			list, err := c.Decode(nil)
			if err != nil || uint32(len(list)) != ft {
				t.Fatalf("term %q: %d of %d postings decoded: %v", term, len(list), ft, err)
			}
			for i, p := range list {
				if p.Doc >= ix.NumDocs() || (i > 0 && p.Doc <= list[i-1].Doc) {
					t.Fatalf("term %q: posting %d is document %d", term, i, p.Doc)
				}
			}
			for k := range min(len(list), 64) { // up to 64 targets spread over the list
				i := k * len(list) / min(len(list), 64)
				p := list[i]
				for _, target := range []uint32{p.Doc, p.Doc + 1} {
					want := i // the first posting at or past target
					if target > p.Doc {
						want++
					}
					ix.ResetCursor(&c, term)
					found := c.Advance(target)
					if found != (want < len(list)) || (found && c.Posting() != list[want]) {
						t.Fatalf("term %q: Advance(%d) = %v at %v, a scan finds posting %d", term, target, found, c.Posting(), want)
					}
				}
			}
			return true
		})
	})
}
