package teraphim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// stdlibHeads are the standard-library packages the docs cite names from
// (atomic.Pointer, io.ReadFull, ...): a span headed by one is the standard
// library's to declare, not the module's.
var stdlibHeads = map[string]string{
	"atomic":  "sync/atomic: the copy-on-write installs",
	"binary":  "encoding/binary: the bit reader's 64-bit window load",
	"bits":    "math/bits: the gamma decoder's leading-zero count",
	"context": "context: cancellation errors",
	"errors":  "errors: errors.Is on typed errors",
	"io":      "io: stream reads",
	"net":     "net: the connection type",
	"rand":    "math/rand: seeded corpora",
	"runtime": "runtime: the goroutine-leak check",
	"sync":    "sync: once-only initialisation",
}

// declaredNames is every name the module declares, in the shapes the docs
// cite them: a bare identifier, a package-qualified one, or Type.Member.
type declaredNames struct {
	names    map[string]bool            // every declared identifier
	pkgs     map[string]map[string]bool // package name → every name declared in it
	members  map[string]map[string]bool // type name → fields and methods
	embedded map[string][]string        // type name → embedded or aliased type names
}

func collectDeclaredNames(t *testing.T) *declaredNames {
	t.Helper()
	d := &declaredNames{
		names:    map[string]bool{},
		pkgs:     map[string]map[string]bool{},
		members:  map[string]map[string]bool{},
		embedded: map[string][]string{},
	}
	var pkg string
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
		d.pkgs[pkg][name] = true
		d.names[name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg = strings.TrimSuffix(f.Name.Name, "_test")
		if d.pkgs[pkg] == nil {
			d.pkgs[pkg] = map[string]bool{}
		}
		top := func(name string) {
			d.pkgs[pkg][name] = true
			d.names[name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					top(decl.Name.Name)
				} else {
					member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							top(n.Name)
						}
					case *ast.TypeSpec:
						name := spec.Name.Name
						top(name)
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							for _, field := range typ.Fields.List {
								if len(field.Names) == 0 {
									emb := typeName(field.Type)
									member(name, emb)
									d.embedded[name] = append(d.embedded[name], emb)
								}
								for _, n := range field.Names {
									member(name, n.Name)
								}
							}
						case *ast.InterfaceType:
							for _, m := range typ.Methods.List {
								for _, n := range m.Names {
									member(name, n.Name)
								}
							}
						default:
							if target := typeName(typ); target != "" {
								d.embedded[name] = append(d.embedded[name], target)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// typeName is the bare name of a receiver, embedded or aliased type
// expression: *core.Pool and Pool[T] both give "Pool".
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	}
	return ""
}

// hasMember reports whether typ declares, embeds or (through an alias or
// defined type) inherits name.
func (d *declaredNames) hasMember(typ, name string, seen map[string]bool) bool {
	if d.members[typ][name] {
		return true
	}
	seen[typ] = true
	for _, next := range d.embedded[typ] {
		if !seen[next] && d.hasMember(next, name, seen) {
			return true
		}
	}
	return false
}

// declares reports whether a backticked span names something the module
// declares: Ident, Ident() or a dotted chain whose first link is pkg.Name
// (Name declared anywhere in pkg, so store.Model() reads as a store's Model)
// or Type.Member, and whose later links are declared somewhere.
func (d *declaredNames) declares(span string) bool {
	parts := strings.Split(strings.TrimSuffix(span, "()"), ".")
	if len(parts) == 1 {
		return d.names[parts[0]] || types.Universe.Lookup(parts[0]) != nil
	}
	head, next := parts[0], parts[1]
	if !d.pkgs[head][next] && !d.hasMember(head, next, map[string]bool{}) {
		return false
	}
	for _, p := range parts[2:] {
		if !d.names[p] {
			return false
		}
	}
	return true
}

var (
	fencedBlock = regexp.MustCompile("(?s)\n```.*?\n```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	identSpan   = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)
	fileSuffix  = regexp.MustCompile(`\.(go|md|json|mod|txt|tsv|sh)$`)
)

// goShaped reports whether a span reads as a Go name rather than a word:
// a call, a dotted selector, or an identifier with a capital letter. An
// all-lowercase bare word (a package name, a metric or label name, a
// formula's variable) is as likely prose as code, and a single letter is
// notation.
func goShaped(span string) bool {
	return len(span) > 1 && (strings.HasSuffix(span, "()") || strings.Contains(span, ".") || strings.ToLower(span) != span)
}

// TestDocsNameDeclaredIdentifiers: every backticked Go name in README.md and
// DESIGN.md — `Ident`, `Ident()` or `Type.Member` — is declared somewhere in
// the module (or by a standard-library package above), so a rename or
// deletion cannot leave the docs describing code that no longer exists. File
// names and spans that are not goShaped are skipped.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	d := collectDeclaredNames(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllString("\n"+string(raw), "\n")
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			span := m[1]
			if !identSpan.MatchString(span) || fileSuffix.MatchString(span) || !goShaped(span) {
				continue
			}
			if head, _, ok := strings.Cut(span, "."); ok && stdlibHeads[head] != "" {
				continue
			}
			if !d.declares(span) {
				t.Errorf("%s: `%s` names nothing declared in the module", doc, span)
			}
		}
	}
}
