// Package intern maps strings to dense ids in first-added order: the one term
// table under an index's dictionary, a text model's lexicons and the
// receptionist's vocabulary. A table copies each string end to end into one
// arena, which Seal freezes into one string, so it never pins the text its
// strings were read from. Lookups probe a power-of-two array of ids by
// hash/maphash and compare the strings, storing no hashes. A table grows
// under one writer; sealed, it is safe for concurrent use, and builds its
// lookup slots on the first Lookup, so one only read by id never holds them.
package intern

import (
	"hash/maphash"
	"slices"
	"strings"
	"sync"
)

// seed keys every table's hash, so no input chosen in advance collides.
var seed = maphash.MakeSeed()

// Table is a string table, made by New. It must not be copied.
type Table struct {
	buf   strings.Builder // the arena while the table grows
	str   string          // the arena's bytes: buf's, or the sealed string
	ends  []uint32        // string i is str[ends[i]:ends[i+1]]; ends[0] is 0
	slots []uint32        // 1 + the id of a string whose probe passes here; 0 empty
	once  sync.Once       // builds the slots
}

// New returns an empty table with room for n strings of bytes bytes in all.
func New(n, bytes int) *Table {
	t := &Table{ends: append(make([]uint32, 0, n+1), 0)}
	t.buf.Grow(bytes)
	return t
}

// Len returns the number of strings in the table.
func (t *Table) Len() int { return len(t.ends) - 1 }

// Bytes returns the length of the table's strings end to end.
func (t *Table) Bytes() int { return len(t.str) }

// At returns string id, which must be below Len, sharing the table's arena.
func (t *Table) At(id uint32) string { return t.str[t.ends[id]:t.ends[id+1]] }

// Add appends s, known not to be in the table, and returns its id.
func (t *Table) Add(s string) uint32 {
	t.buf.WriteString(s)
	return t.added()
}

// AddBytes is Add for a string given as bytes.
func (t *Table) AddBytes(b []byte) uint32 {
	t.buf.Write(b)
	return t.added()
}

// added records the string the arena just grew by and returns its id.
func (t *Table) added() uint32 {
	t.str = t.buf.String()
	id := uint32(t.Len())
	t.ends = append(t.ends, uint32(len(t.str)))
	if t.slots != nil && 2*t.Len() > len(t.slots) {
		t.index(2 * len(t.slots))
	} else if t.slots != nil {
		t.insert(id)
	}
	return id
}

// Intern returns s's id, adding s if it is not in the table, and whether it was.
func (t *Table) Intern(s string) (id uint32, added bool) {
	if id, ok := t.Lookup(s); ok {
		return id, false
	}
	return t.Add(s), true
}

// Lookup returns the id of s (its first copy's), or false if s is absent.
func (t *Table) Lookup(s string) (uint32, bool) {
	t.Index()
	i, ok := t.probe(s)
	return t.slots[i] - 1, ok
}

// Index builds the lookup slots now, if no Lookup has.
func (t *Table) Index() { t.once.Do(func() { t.index(8) }) }

// index rebuilds the slots, at least n of them and at most half used.
func (t *Table) index(n int) {
	for n < 2*t.Len() {
		n *= 2
	}
	t.slots = make([]uint32, n)
	for id := range uint32(t.Len()) {
		t.insert(id)
	}
}

// insert gives string id the empty slot its probe ends at, unless an earlier
// copy of it holds one.
func (t *Table) insert(id uint32) {
	if i, found := t.probe(t.At(id)); !found {
		t.slots[i] = id + 1
	}
}

// probe returns the slot holding s, or the empty slot that ends its probe.
func (t *Table) probe(s string) (slot uint64, found bool) {
	mask := uint64(len(t.slots) - 1)
	i := maphash.String(seed, s) & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if t.At(t.slots[i]-1) == s {
			return i, true
		}
	}
	return i, false
}

// Seal freezes the table: its bytes are copied into one string and its ends
// into one slice, each of its own length, and its lookup slots are dropped
// until the next Lookup or Index. Nothing may be added after.
func (t *Table) Seal() {
	t.str, t.ends = strings.Clone(t.str), slices.Clone(t.ends)
	t.buf, t.slots, t.once = strings.Builder{}, nil, sync.Once{}
}

// Indexed reports whether the table holds its lookup slots.
func (t *Table) Indexed() bool { return t.slots != nil }
