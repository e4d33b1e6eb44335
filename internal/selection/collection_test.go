package selection

// The per-collection DF-map form the score tests state their collections in:
// New folds it into a Vocabulary the way the receptionist's vocabulary
// exchange fills one.

// Collection is one subcollection's term statistics as the receptionist
// knows them: the librarian's name, its document count, and its document
// frequency per term (the f_t map shipped during SetupVocabulary).
type Collection struct {
	Name string
	Docs uint32
	// DF maps term -> number of the collection's documents containing it.
	DF map[string]uint32
}

// New builds a selection index over the given collections. The order of
// cols fixes the index numbering (callers align it with the federation's
// global librarian numbering). Nil or empty input yields an index that
// selects nothing.
func New(cols []Collection) *Index {
	v := NewVocabulary(len(cols))
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
		for t, df := range c.DF {
			v.Add(i, t, df)
		}
	}
	return NewIndex(names, v)
}
