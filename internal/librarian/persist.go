package librarian

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"teraphim/internal/index"
	"teraphim/internal/search"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

// Collection layout on disk:
//
//	<dir>/collection.conf  — name and analyzer options
//	<dir>/index.tpix       — inverted index (index.WriteTo)
//	<dir>/store.tpst       — compressed documents (store.WriteTo)
const (
	confFile  = "collection.conf"
	indexFile = "index.tpix"
	storeFile = "store.tpst"
)

// SaveOptions describes the analyzer configuration persisted alongside a
// collection so queries are analysed identically on reload.
type SaveOptions struct {
	Stopwords bool
	Stemming  bool
}

// Save writes the librarian's collection to dir, creating it if needed. A
// collection that has grown to several segments is written as its merged
// view — one index, one store — so Load reopens it as one segment.
func Save(dir string, lib *Librarian, opts SaveOptions) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("librarian: create %s: %w", dir, err)
	}
	conf := fmt.Sprintf("name=%s\nstopwords=%t\nstemming=%t\n", lib.Name(), opts.Stopwords, opts.Stemming)
	if err := os.WriteFile(filepath.Join(dir, confFile), []byte(conf), 0o644); err != nil {
		return fmt.Errorf("librarian: write conf: %w", err)
	}
	if err := writeFileWith(filepath.Join(dir, indexFile), lib.Engine().Index().WriteTo); err != nil {
		return fmt.Errorf("librarian: write index: %w", err)
	}
	if err := writeFileWith(filepath.Join(dir, storeFile), lib.Store().WriteTo); err != nil {
		return fmt.Errorf("librarian: write store: %w", err)
	}
	return nil
}

func writeFileWith(path string, writeTo func(w io.Writer) (int64, error)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := writeTo(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reopens a collection saved with Save.
func Load(dir string) (*Librarian, error) {
	conf, err := os.ReadFile(filepath.Join(dir, confFile))
	if err != nil {
		return nil, fmt.Errorf("librarian: read conf: %w", err)
	}
	name, analyzer, err := parseConf(string(conf))
	if err != nil {
		return nil, err
	}
	ixf, err := os.Open(filepath.Join(dir, indexFile))
	if err != nil {
		return nil, fmt.Errorf("librarian: open index: %w", err)
	}
	defer ixf.Close()
	ix, err := index.ReadFrom(ixf)
	if err != nil {
		return nil, fmt.Errorf("librarian: load index: %w", err)
	}
	stf, err := os.Open(filepath.Join(dir, storeFile))
	if err != nil {
		return nil, fmt.Errorf("librarian: open store: %w", err)
	}
	defer stf.Close()
	st, err := store.ReadFrom(stf)
	if err != nil {
		return nil, fmt.Errorf("librarian: load store: %w", err)
	}
	return New(name, search.NewEngine(ix, analyzer), st)
}

func parseConf(conf string) (string, *textproc.Analyzer, error) {
	name := ""
	stop, stem := true, true
	for _, line := range strings.Split(conf, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, value, found := strings.Cut(line, "=")
		if !found {
			return "", nil, fmt.Errorf("librarian: malformed conf line %q", line)
		}
		switch key {
		case "name":
			name = value
		case "stopwords":
			stop = value == "true"
		case "stemming":
			stem = value == "true"
		default:
			return "", nil, fmt.Errorf("librarian: unknown conf key %q", key)
		}
	}
	if name == "" {
		return "", nil, fmt.Errorf("librarian: conf missing collection name")
	}
	var opts []textproc.Option
	if !stop {
		opts = append(opts, textproc.WithoutStopwords())
	}
	if !stem {
		opts = append(opts, textproc.WithoutStemming())
	}
	return name, textproc.NewAnalyzer(opts...), nil
}
