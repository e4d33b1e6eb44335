package teraphim

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported names under internal/ whose only callers
// are tests, each because a test is its purpose. Everything else exported
// there must earn a caller in non-test code.
var testOnlyExports = map[string]string{
	"simnet.Chaos.Kill":            "chaos hook: the replica chaos tests sever one endpoint mid-stress",
	"simnet.Chaos.Revive":          "chaos hook: the chaos tests bring a killed endpoint back for readmission",
	"simnet.Chaos.SetDelay":        "chaos hook: the hedging and transport tests slow one endpoint",
	"core.BuildGroupedFromIndexes": "a source TestFormatPinned hashes: the CI index regrouped from sub-indexes",
	"core.GroupedIndex.WriteTo":    "the bytes TestFormatPinned hashes for the grouped index",
	"oracle.Scores":                "the reference every ranking differential test compares against",
	"store.Store.Fetches":          "read counter the no-re-read tests pin (TestIngestDoesNotRereadStore, the merge and Concat tests)",
	"intern.Table.Indexed":         "slot probe: TestUnmarshalledModelDecodesWithoutLookup and TestTrainedModelBuildsLookupOnFirstEncode check that a model that only decodes builds no lookup slots",
}

// modulePackage is one package of the module, type-checked from its non-test
// source files.
type modulePackage struct {
	internal bool // under internal/: its exported names are checked
	files    []*ast.File
	info     *types.Info
	pkg      *types.Package
}

// goListed is one line of `go list -export -deps`.
type goListed struct {
	path, export, dir, module string
	files                     []string
}

// listModule runs `go list -export -deps ./...`: every package the module
// builds with, in dependency order, with the export data of the standard
// library's.
func listModule(t *testing.T) []goListed {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goBin, "list", "-export", "-deps", "-f",
		`{{.ImportPath}}|{{.Export}}|{{.Dir}}|{{if .Module}}{{.Module.Path}}{{end}}|{{join .GoFiles ","}}`, "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []goListed
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "|")
		if len(f) != 5 {
			t.Fatalf("go list: unexpected line %q", sc.Text())
		}
		p := goListed{path: f[0], export: f[1], dir: f[2], module: f[3]}
		if f[4] != "" {
			p.files = strings.Split(f[4], ",")
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// loadModule type-checks every package of the module from its non-test files
// in one type universe, importing the standard library from export data.
func loadModule(t *testing.T) []*modulePackage {
	t.Helper()
	listed := listModule(t)
	exports := map[string]string{}
	module := ""
	for _, p := range listed {
		exports[p.path] = p.export
		if p.module != "" {
			module = p.module
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	var mod []*modulePackage
	for _, p := range listed {
		if p.module != module {
			continue
		}
		mp := &modulePackage{
			internal: strings.HasPrefix(p.path, module+"/internal/"),
			info: &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
			},
		}
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			mp.files = append(mp.files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.path, fset, mp.files, mp.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
		mp.pkg = pkg
		checked[p.path] = pkg
		mod = append(mod, mp)
	}
	return mod
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declNode is one top-level declaration: what it references and which
// interfaces its code puts values through.
type declNode struct {
	obj    types.Object
	refs   []types.Object
	ifaces []*types.Interface
	live   bool
}

// liveness is reachability over the module's declarations: roots are every
// declaration outside internal/ except the facade's re-exports, and a
// declaration is live once live code references it, or — for a method — once
// its type is live and implements an interface live code uses that names it.
type liveness struct {
	nodes  map[types.Object]*declNode
	work   []*declNode
	ifaces []*types.Interface
	types  []*types.TypeName // live named types with methods
}

// origin maps an instantiated function or method to its generic declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

func (l *liveness) mark(obj types.Object) {
	n := l.nodes[origin(obj)]
	if n == nil || n.live {
		return
	}
	n.live = true
	l.work = append(l.work, n)
}

// implementers marks the methods through which iface reaches typ.
func (l *liveness) implementers(typ *types.TypeName, iface *types.Interface) {
	ptr := types.NewPointer(typ.Type()) // its method set holds T's and *T's
	if !types.Implements(ptr, iface) {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
			l.mark(obj)
		}
	}
}

func (l *liveness) run() {
	for len(l.work) > 0 {
		n := l.work[len(l.work)-1]
		l.work = l.work[:len(l.work)-1]
		for _, r := range n.refs {
			l.mark(r)
		}
		for _, iface := range n.ifaces {
			l.ifaces = append(l.ifaces, iface)
			for _, typ := range l.types {
				l.implementers(typ, iface)
			}
		}
		if tn, ok := n.obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok && named.NumMethods() > 0 && named.TypeParams() == nil {
				l.types = append(l.types, tn)
				for _, iface := range l.ifaces {
					l.implementers(tn, iface)
				}
			}
		}
	}
}

// interfacesIn adds to set the non-empty interfaces a value of type t is
// used as: t itself, or a parameter or result of a function of type t.
func interfacesIn(t types.Type, set map[*types.Interface]bool) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tup.Len(); i++ {
				interfacesIn(tup.At(i).Type(), set)
			}
		}
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
		set[iface] = true
	}
}

// reExport reports whether spec only renames another package's type:
// `type T = pkg.T`.
func reExport(spec ast.Spec) bool {
	s, ok := spec.(*ast.TypeSpec)
	if !ok {
		return false
	}
	_, sel := s.Type.(*ast.SelectorExpr)
	return s.Assign.IsValid() && sel
}

// unusedExports lists, as pkg.Name or pkg.Type.Method, every exported
// function, type or method under internal/ that no live non-test code
// reaches.
func unusedExports(t *testing.T) []string {
	mod := loadModule(t)
	l := &liveness{nodes: map[types.Object]*declNode{}}
	internal := map[*types.Package]bool{}
	add := func(mp *modulePackage, obj types.Object, decl ast.Node, root bool) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		n := &declNode{obj: obj}
		ifaces := map[*types.Interface]bool{}
		ast.Inspect(decl, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.Ident:
				if use := mp.info.Uses[x]; use != nil && use != obj && use.Pkg() != nil {
					n.refs = append(n.refs, use)
					switch use.(type) {
					case *types.Var, *types.Func:
						interfacesIn(use.Type(), ifaces)
					}
				}
			case ast.Expr:
				if tv, ok := mp.info.Types[x]; ok && tv.Type != nil {
					interfacesIn(tv.Type, ifaces)
				}
			}
			return true
		})
		for iface := range ifaces {
			n.ifaces = append(n.ifaces, iface)
		}
		l.nodes[obj] = n
		if root {
			l.mark(obj)
		}
	}
	for _, mp := range mod {
		internal[mp.pkg] = mp.internal
		for _, f := range mp.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := mp.info.Defs[d.Name]
					root := !mp.internal || (d.Recv == nil && d.Name.Name == "init")
					add(mp, obj, d, root)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						root := !mp.internal && !reExport(spec)
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(mp, mp.info.Defs[s.Name], s, root)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								add(mp, mp.info.Defs[name], s, root)
							}
						}
					}
				}
			}
		}
	}
	l.run()

	var unused []string
	for obj, n := range l.nodes {
		if n.live || !internal[obj.Pkg()] || !obj.Exported() {
			continue
		}
		name := obj.Pkg().Name() + "." + obj.Name()
		switch obj := obj.(type) {
		case *types.TypeName:
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				if obj.Name() == "String" || obj.Name() == "Error" {
					continue
				}
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				name = obj.Pkg().Name() + "." + rt.(*types.Named).Obj().Name() + "." + obj.Name()
			}
		default:
			continue
		}
		unused = append(unused, name)
	}
	sort.Strings(unused)
	return unused
}

// TestExportsHaveNonTestCallers: every exported function, type and method
// under internal/ is reached from non-test code — a command, an example, the
// benchmark or the teraphim facade, directly or through code they reach.
// Methods resolve by receiver, so Pool.Replicas is not covered by a caller of
// Config.Replicas, and a method an interface in live code names counts as
// called for every live type implementing it. A name whose only callers are
// tests is deleted, or listed in testOnlyExports when a test is its purpose.
func TestExportsHaveNonTestCallers(t *testing.T) {
	unused := unusedExports(t)
	seen := map[string]bool{}
	for _, name := range unused {
		seen[name] = true
		if testOnlyExports[name] == "" {
			t.Errorf("%s is exported but has no non-test caller: delete it, or list it in testOnlyExports with the test that is its purpose", name)
		}
	}
	for name := range testOnlyExports {
		if !seen[name] {
			t.Errorf("testOnlyExports lists %s, which is gone or has a non-test caller: drop the entry", name)
		}
	}
}
