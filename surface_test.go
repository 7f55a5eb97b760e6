package shuffledeck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed names exported functions and methods under internal/
// that no non-test file calls, each kept for the reason given. Keys are
// "pkgdir.Func" or "pkgdir.Type.Method". An entry that matches no
// declaration, or one that non-test code does call, fails the test, so
// the list shrinks with the code.
var surfaceAllowed = map[string]string{
	"internal/stats.ChiSquare":                     "serve and policy tests check draw distributions with it",
	"internal/stats.ChiSquareCritical999":          "serve and policy tests check draw distributions with it",
	"internal/randutil.RNG.Perm":                   "serve's deck tests draw reference permutations with it",
	"internal/rankengine.Treap.CountAbove":         "sim tests count the pages above a popularity with it",
	"internal/faultfs.Injector.FailWrites":         "wal and cluster tests inject write failures with it",
	"internal/faultfs.Injector.SetTornWrites":      "wal and cluster tests inject torn writes with it",
	"internal/faultfs.Injector.WriteFailures":      "wal and cluster tests count injected write failures with it",
	"internal/faultfs.Injector.SyncFailures":       "wal and cluster tests count injected sync failures with it",
	"internal/wal.Log.Size":                        "store tests check segment bytes with it",
	"internal/policy.Resolver.PromotedProbability": "the exact promotion probability the exposure metrics of ROADMAP items 12 and 18 will export",
}

// stdInterfaces are the standard-library interfaces whose methods the
// standard library calls, out of sight of the module's own files.
var stdInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"net/http", "Handler"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"io", "Closer"},
}

// TestNoTestOnlyExports fails when an exported function or method
// declared in a non-test file under internal/, an exported interface's
// methods included, is called by no non-test file. It type-checks every
// non-test package of the module, so a call counts only when it
// resolves to that very declaration; a reference inside the
// declaration's own body does not count. A method also counts as called
// when its type implements an interface whose method of that name
// non-test code calls, or one of stdInterfaces or error. An export only
// tests call belongs in a _test.go file of its package.
func TestNoTestOnlyExports(t *testing.T) {
	unused, err := testOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(unused) > 0 {
		t.Errorf("%d exported functions or methods under internal/ have no non-test caller; "+
			"move each into a _test.go file of its package, delete it, or allowlist it in surfaceAllowed with a reason "+
			"(a stale allowlist entry is listed too):\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// moduleImporter type-checks the module's packages from the parsed
// files, recording every package's uses in one types.Info, and leaves
// the standard library to the source importer.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> non-test files
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	m.pkgs[path] = p
	return p, nil
}

// testOnlyExports returns the keys of the exported functions and methods
// under root/internal that no non-test file of the module calls.
func testOnlyExports(root string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		ip := modPath
		if dir != "." {
			ip += "/" + dir
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		fset:  fset,
		files: files,
		std:   importer.ForCompiler(fset, "source", nil),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
	}
	paths := make([]string, 0, len(files))
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			return nil, err
		}
	}

	// Calls: every use of a function or method, by position, and the
	// interface methods non-test code or the standard library calls.
	type ifaceCall struct {
		name  string
		iface *types.Interface
	}
	uses := map[*types.Func][]token.Pos{}
	ifaceCalls := map[ifaceCall]bool{}
	for id, obj := range imp.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		uses[fn] = append(uses[fn], id.Pos())
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				ifaceCalls[ifaceCall{fn.Name(), iface}] = true
			}
		}
	}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, si := range stdInterfaces {
		p, err := imp.std.Import(si[0])
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, p.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface))
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceCalls[ifaceCall{iface.Method(i).Name(), iface}] = true
		}
	}
	viaInterface := func(m *types.Func) bool {
		t := m.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		for c := range ifaceCalls {
			if c.name == m.Name() && (types.Implements(t, c.iface) || types.Implements(types.NewPointer(t), c.iface)) {
				return true
			}
		}
		return false
	}

	var unused []string
	matched := map[string]bool{}
	judge := func(key string, called bool) {
		if _, ok := surfaceAllowed[key]; ok {
			matched[key] = true
			if called {
				unused = append(unused, key+" (allowlisted, but called)")
			}
		} else if !called {
			unused = append(unused, key)
		}
	}
	for _, ip := range paths {
		dir := strings.TrimPrefix(ip, modPath+"/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files[ip] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := imp.info.Defs[d.Name].(*types.Func)
					key := dir + "." + d.Name.Name
					if d.Recv != nil {
						recv := receiverType(d.Recv.List[0].Type)
						if !ast.IsExported(recv) {
							continue // unreachable from outside its package by name
						}
						key = dir + "." + recv + "." + d.Name.Name
					}
					called := false
					for _, p := range uses[fn] {
						if p < d.Pos() || p >= d.End() {
							called = true
							break
						}
					}
					if !called && d.Recv != nil {
						called = viaInterface(fn)
					}
					judge(key, called)
				case *ast.GenDecl:
					// An interface's own methods: called when some use
					// resolves to the interface method itself.
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() {
							continue
						}
						it, ok := ts.Type.(*ast.InterfaceType)
						if !ok {
							continue
						}
						for _, m := range it.Methods.List {
							for _, name := range m.Names { // an embedded interface has none
								if name.IsExported() {
									judge(dir+"."+ts.Name.Name+"."+name.Name, len(uses[imp.info.Defs[name].(*types.Func)]) > 0)
								}
							}
						}
					}
				}
			}
		}
	}
	for k := range surfaceAllowed {
		if !matched[k] {
			unused = append(unused, k+" (allowlisted, but declared nowhere)")
		}
	}
	sort.Strings(unused)
	return unused, nil
}

func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", os.ErrNotExist
}
