package atomicfile

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDurableWritesGoThroughOnePath holds the packages that write the
// durable record (perflog, perfstore, obs, service) to one way of
// writing a file: only atomicfile.Write replaces one and only perflog's
// openLog opens one for appending. Any other use of the os functions
// that create, truncate, open for writing or rename a file fails it, so
// crash safety stays decided in those two places.
func TestDurableWritesGoThroughOnePath(t *testing.T) {
	banned := map[string]bool{"Rename": true, "WriteFile": true, "Create": true, "CreateTemp": true, "OpenFile": true}
	allowed := map[string]int{"atomicfile.Write": 0, "perflog.openLog": 0}
	var stray []string
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../perflog", "../perfstore", "../obs", "../service"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		scanned := 0
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			scanned++
			osName := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
					osName = "os"
					if imp.Name != nil {
						osName = imp.Name.Name
					}
				}
			}
			if osName == "" {
				continue
			}
			for _, decl := range f.Decls {
				owner := f.Name.Name + "." + declName(decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || !banned[sel.Sel.Name] {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || x.Name != osName {
						return true
					}
					if _, ok := allowed[owner]; ok {
						allowed[owner]++
					} else {
						stray = append(stray, fset.Position(sel.Pos()).String()+": os."+sel.Sel.Name+" in "+owner)
					}
					return true
				})
			}
		}
		if scanned == 0 {
			t.Fatalf("no non-test Go files under %s: the gate is looking in the wrong place", dir)
		}
	}
	sort.Strings(stray)
	for _, s := range stray {
		t.Errorf("%s: write through atomicfile.Write or perflog's openLog instead", s)
	}
	for fn, n := range allowed {
		if n == 0 {
			t.Errorf("%s makes none of the calls the gate guards: the gate no longer sees the one path", fn)
		}
	}
}

// declName names a top-level declaration: a function, a method as
// (Recv).Name, or "var"/"const"/"type" for the rest.
func declName(d ast.Decl) string {
	fn, ok := d.(*ast.FuncDecl)
	if !ok {
		return d.(*ast.GenDecl).Tok.String()
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return "(" + id.Name + ")." + fn.Name.Name
	}
	return fn.Name.Name
}
