package shuffledeck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowed names exported functions and methods under internal/
// that no non-test file references, each kept for the reason given.
// Keys are "pkgdir.Func" or "pkgdir.Type.Method"; a "*.Method" key
// allows the method on every type, for methods that satisfy an
// interface and are called through it, which a syntax-only scan cannot
// see. An entry that matches no declaration fails the test, so the list
// shrinks with the code.
var surfaceAllowed = map[string]string{
	"*.String":    "fmt.Stringer, called by fmt's verbs",
	"*.ServeHTTP": "http.Handler, called by net/http",
	"*.Len":       "sort.Interface and policy.Source, called through the interface",
	"*.Close":     "io.Closer, called through the interface",

	"internal/stats.ChiSquare":                     "serve and policy tests check draw distributions with it",
	"internal/stats.ChiSquareCritical999":          "serve and policy tests check draw distributions with it",
	"internal/randutil.RNG.Perm":                   "serve's deck tests draw reference permutations with it",
	"internal/rankengine.Treap.CountAbove":         "sim tests count the pages above a popularity with it",
	"internal/faultfs.Injector.FailWrites":         "wal and cluster tests inject write failures with it",
	"internal/faultfs.Injector.SetTornWrites":      "wal and cluster tests inject torn writes with it",
	"internal/faultfs.Injector.WriteFailures":      "wal and cluster tests count injected write failures with it",
	"internal/faultfs.Injector.SyncFailures":       "wal and cluster tests count injected sync failures with it",
	"internal/policy.Resolver.PromotedProbability": "the exact promotion probability the exposure metrics of ROADMAP items 12 and 18 will export",
}

// TestNoTestOnlyExports fails when an exported function or method
// declared in a non-test file under internal/ is referenced by no
// non-test file. A function counts as referenced by a pkg.Name selector
// from another package or a Name identifier in its own package; a
// method by any .Name selector. Its own declaration does not count. It
// reads syntax only, so it cannot tell two methods of one name apart.
// An export only tests call belongs in a _test.go file of its package.
func TestNoTestOnlyExports(t *testing.T) {
	unused, err := testOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(unused) > 0 {
		t.Errorf("%d exported functions or methods under internal/ have no non-test caller; "+
			"move each into a _test.go file of its package, delete it, or allowlist it in surfaceAllowed with a reason "+
			"(an allowlist entry that matches no declaration is listed too):\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

type surfaceDecl struct {
	key      string // pkgdir.Func or pkgdir.Type.Method
	name     string
	method   bool
	pos, end token.Pos
}

// testOnlyExports returns the keys of the exported functions and methods
// under root/internal that no non-test file of the module references.
func testOnlyExports(root string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // package dir (slash, relative) -> files
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
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var decls []surfaceDecl
	for dir, pkgFiles := range files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				sd := surfaceDecl{name: fd.Name.Name, pos: fd.Pos(), end: fd.End()}
				if fd.Recv != nil {
					recv := receiverType(fd.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue // unreachable from outside its package by name
					}
					sd.method = true
					sd.key = dir + "." + recv + "." + sd.name
				} else {
					sd.key = dir + "." + sd.name
				}
				decls = append(decls, sd)
			}
		}
	}

	// References: selectors by name (methods), and under "dir.Name" a
	// pkg.Name from another package or a bare Name inside package dir
	// (functions). Each reference keeps its position so a declaration's
	// own body can be excluded.
	selectors := map[string][]token.Pos{}
	funcs := map[string][]token.Pos{}
	sels := map[*ast.Ident]bool{}
	for dir, pkgFiles := range files {
		for _, f := range pkgFiles {
			imports := map[string]string{} // local name -> package dir
			for _, is := range f.Imports {
				ip, _ := strconv.Unquote(is.Path.Value)
				if !strings.HasPrefix(ip, modPath+"/") {
					continue
				}
				idir := strings.TrimPrefix(ip, modPath+"/")
				name := path.Base(idir)
				if pf := files[idir]; len(pf) > 0 {
					name = pf[0].Name.Name
				}
				if is.Name != nil {
					name = is.Name.Name
				}
				imports[name] = idir
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					sels[x.Sel] = true
					selectors[x.Sel.Name] = append(selectors[x.Sel.Name], x.Pos())
					if id, ok := x.X.(*ast.Ident); ok {
						if idir, ok := imports[id.Name]; ok {
							k := idir + "." + x.Sel.Name
							funcs[k] = append(funcs[k], x.Pos())
						}
					}
				case *ast.Ident:
					if sels[x] {
						break
					}
					k := dir + "." + x.Name
					funcs[k] = append(funcs[k], x.Pos())
				}
				return true
			})
		}
	}

	outside := func(ps []token.Pos, d surfaceDecl) bool {
		for _, p := range ps {
			if p < d.pos || p >= d.end {
				return true
			}
		}
		return false
	}
	var unused []string
	matched := map[string]bool{}
	for _, d := range decls {
		if _, ok := surfaceAllowed[d.key]; ok {
			matched[d.key] = true
			continue
		}
		if d.method {
			if _, ok := surfaceAllowed["*."+d.name]; ok {
				matched["*."+d.name] = true
				continue
			}
			if outside(selectors[d.name], d) {
				continue
			}
		} else if outside(funcs[d.key], d) {
			continue
		}
		unused = append(unused, d.key)
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
