package protocol

import (
	"errors"
	"reflect"
	"testing"

	"teraphim/internal/codec"
)

type groupList struct {
	term   string
	groups []codec.Posting // global group ids
}

// readLists drains a ListReader the way index.FoldGroups does, checking that
// every list it yields holds strictly ascending groups in [Lo, Hi) with
// non-zero frequencies.
func readLists(t *testing.T, m *IndexReply) ([]groupList, error) {
	t.Helper()
	r := NewListReader(m)
	var out []groupList
	for {
		term, err := r.NextTerm()
		if err != nil || term == "" {
			return out, err
		}
		groups, err := r.AppendGroups(nil)
		if err != nil {
			return out, err
		}
		for i, g := range groups {
			if g.Doc < m.Lo || g.Doc >= m.Hi || g.FDT == 0 || (i > 0 && g.Doc <= groups[i-1].Doc) {
				t.Fatalf("term %q: group %+v at %d of %v outside [%d, %d) or out of order", term, g, i, groups, m.Lo, m.Hi)
			}
		}
		out = append(out, groupList{term, groups})
	}
}

func TestListsRoundTrip(t *testing.T) {
	reply := seedIndexReply()
	got, err := readLists(t, reply)
	if err != nil {
		t.Fatal(err)
	}
	want := []groupList{
		{"aardvark", []codec.Posting{{Doc: 43, FDT: 2}, {Doc: 50, FDT: 1}, {Doc: 71, FDT: 4}}},
		{"aardwolf", []codec.Posting{{Doc: 46, FDT: 1}}},
		{"zebra", []codec.Posting{{Doc: 43, FDT: 1}, {Doc: 44, FDT: 9}, {Doc: 45, FDT: 1}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lists = %+v, want %+v", got, want)
	}
}

// TestListReaderRejects: truncated, reordered, out-of-range and inflated
// input is a typed error, and an inflated count fails before any group is
// decoded.
func TestListReaderRejects(t *testing.T) {
	good := seedIndexReply().Lists
	entry := func(shared int, suffix string, count uint64, postings ...byte) []byte {
		return append(putUint(putString(putUint(nil, uint64(shared)), suffix), count), postings...)
	}
	for name, lists := range map[string][]byte{
		"truncated":         good[:len(good)-1],
		"truncated header":  good[:1],
		"reordered":         append(entry(0, "zz", 1, 0x00), entry(0, "aa", 1, 0x00)...),
		"repeated":          append(entry(0, "aa", 1, 0x00), entry(2, "", 1, 0x00)...),
		"empty term":        entry(0, "", 1, 0x00),
		"bad shared prefix": entry(3, "a", 1, 0x00),
		"zero count":        entry(0, "a", 0),
		"more than groups":  entry(0, "a", 30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00),
		"inflated count":    entry(0, "a", 1<<40, 0x00),
		"group outside":     entry(0, "a", 1, 0xff, 0xff, 0xff, 0xff),
	} {
		_, err := readLists(t, &IndexReply{Lo: 43, Hi: 72, Lists: lists})
		if !errors.Is(err, ErrBadIndexReply) {
			t.Errorf("%s: error %v, want ErrBadIndexReply", name, err)
		}
	}
	r := NewListReader(&IndexReply{Lo: 0, Hi: 1 << 31, Lists: entry(0, "a", 1<<30, 0x00)})
	if _, err := r.NextTerm(); !errors.Is(err, ErrBadIndexReply) {
		t.Fatalf("a count the payload cannot hold: error %v, want ErrBadIndexReply from NextTerm", err)
	}
}

// FuzzGroupedIndexReply throws arbitrary IndexReply payloads at the
// receptionist's decoder. It never panics; it returns ErrBadIndexReply or
// lists that are in range and ordered (readLists checks); what it returns is
// bounded by the payload — every group costs at least two bits — and
// re-encodes to lists that read back the same.
func FuzzGroupedIndexReply(f *testing.F) {
	f.Add(seedIndexReply().encode(nil))
	f.Add((&IndexReply{Lo: 5, Hi: 5}).encode(nil))
	f.Add((&IndexReply{Lo: 7, Hi: 3, Lists: seedIndexReply().Lists}).encode(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var m IndexReply
		if err := m.decode(payload); err != nil {
			return
		}
		lists, err := readLists(t, &m)
		if err != nil {
			if !errors.Is(err, ErrBadIndexReply) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		total := 0
		back := &IndexReply{Lo: m.Lo, Hi: m.Hi}
		w := NewListWriter(back)
		for _, l := range lists {
			total += len(l.groups)
			local := make([]codec.Posting, len(l.groups))
			for i, g := range l.groups {
				local[i] = codec.Posting{Doc: g.Doc - m.Lo, FDT: g.FDT}
			}
			if err := w.Append(l.term, local); err != nil {
				t.Fatalf("decoded list %q does not re-encode: %v", l.term, err)
			}
		}
		if total > 4*len(m.Lists) {
			t.Fatalf("%d groups from %d bytes of lists", total, len(m.Lists))
		}
		again, err := readLists(t, back)
		if err != nil || !reflect.DeepEqual(again, lists) {
			t.Fatalf("re-encoded lists read back as %+v, %v; want %+v", again, err, lists)
		}
	})
}
