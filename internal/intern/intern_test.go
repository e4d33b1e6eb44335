package intern

import (
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

// TestTableNumbersInFirstAddedOrder: ids are dense in first-added order, the
// empty string and one-byte strings among them, and every string is found by
// its id and its id by it, through every rehash of a table grown from empty
// and after Seal.
func TestTableNumbersInFirstAddedOrder(t *testing.T) {
	words := []string{"", "a", "ab", "b", "ba", "abc"}
	for i := range 2000 {
		words = append(words, "w"+strconv.Itoa(i))
	}
	tab := New(0, 0)
	for i, w := range words {
		if id, added := tab.Intern(w); !added || id != uint32(i) {
			t.Fatalf("Intern(%q) = %d, %v; want %d, true", w, id, added, i)
		}
		if id, added := tab.Intern(w); added || id != uint32(i) {
			t.Fatalf("second Intern(%q) = %d, %v; want %d, false", w, id, added, i)
		}
	}
	check := func(when string) {
		t.Helper()
		if tab.Len() != len(words) {
			t.Fatalf("%s: %d strings, want %d", when, tab.Len(), len(words))
		}
		for i, w := range words {
			if got := tab.At(uint32(i)); got != w {
				t.Fatalf("%s: At(%d) = %q, want %q", when, i, got, w)
			}
			if id, ok := tab.Lookup(w); !ok || id != uint32(i) {
				t.Fatalf("%s: Lookup(%q) = %d, %v; want %d", when, w, id, ok, i)
			}
		}
		for _, w := range []string{"c", "abcd", "w2000", "w"} {
			if id, ok := tab.Lookup(w); ok {
				t.Fatalf("%s: Lookup(%q) found id %d", when, w, id)
			}
		}
	}
	check("growing")
	tab.Seal()
	if tab.Indexed() {
		t.Fatal("a sealed table holds its lookup slots")
	}
	check("sealed")
	if !tab.Indexed() {
		t.Fatal("no lookup slots after a Lookup")
	}
}

// TestTableOwnsItsBytes: no string a table hands out points into the bytes it
// was given.
func TestTableOwnsItsBytes(t *testing.T) {
	text := "the cat sat on the mat"
	tab := New(4, len("thecatsaton"))
	for _, w := range []string{text[0:3], text[4:7], text[8:11], text[12:14]} {
		tab.Add(w)
	}
	tab.Seal()
	lo, hi := uintptr(unsafe.Pointer(unsafe.StringData(text))), uintptr(unsafe.Pointer(unsafe.StringData(text)))+uintptr(len(text))
	for id := range uint32(tab.Len()) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(tab.At(id)))); p >= lo && p < hi {
			t.Fatalf("string %d %q points into its input", id, tab.At(id))
		}
	}
}

// TestLookupFindsFirstCopy: a string AddBytes added twice is found at its
// first id, which is how a decoder detects the repeat.
func TestLookupFindsFirstCopy(t *testing.T) {
	tab := New(0, 0)
	for _, w := range []string{"x", "dup", "y", "dup"} {
		tab.AddBytes([]byte(w))
	}
	if id, ok := tab.Lookup("dup"); !ok || id != 1 {
		t.Fatalf("Lookup(dup) = %d, %v; want 1, true", id, ok)
	}
}

// TestSealedTableConcurrentLookups: the first Lookups of a sealed table race
// to build its slots; under -race they must agree and not race.
func TestSealedTableConcurrentLookups(t *testing.T) {
	tab := New(0, 0)
	for i := range 500 {
		tab.Add(strconv.Itoa(i))
	}
	tab.Seal()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < 500; i += 4 {
				if id, ok := tab.Lookup(strconv.Itoa(i)); !ok || id != uint32(i) {
					t.Errorf("Lookup(%d) = %d, %v", i, id, ok)
				}
			}
		}()
	}
	wg.Wait()
}
