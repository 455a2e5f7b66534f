package perflog

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRecordHasOneReader holds the perflog record to one reader, read
// from the module's non-test files: ParseLine is named only in Scan and
// under bench/ (whose micro-benchmark times it), and no file of this
// package imports bufio, whose line scanner Scan replaced. That the
// store reads a tail only through readTail is pinned by perfstore's
// TestStateChangesGoThroughOnePath.
func TestRecordHasOneReader(t *testing.T) {
	const module, self = "../..", "internal/perflog"
	var refs []string // non-test references to ParseLine outside bench/
	fset := token.NewFileSet()
	err := filepath.WalkDir(module, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(module, path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		local := "" // this file's name for the perflog package
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if dir == self && p == "bufio" {
				t.Errorf("%s imports bufio: perflog text is read by Scan alone", rel)
			}
			if p == "repro/"+self {
				local = "perflog"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if dir == "bench" || strings.HasPrefix(dir, "bench/") {
			return nil
		}
		// Every reference counts, called or not: a function value taken
		// here and called elsewhere, or a package-level initializer, is a
		// reader too. The declaration's own name is not a reference.
		for _, decl := range f.Decls {
			where, name := "package-level", (*ast.Ident)(nil)
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where, name = fn.Name.Name, fn.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if n != name && dir == self && n.Name == "ParseLine" {
						refs = append(refs, dir+"."+where)
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && local != "" && x.Name == local && n.Sel.Name == "ParseLine" {
						refs = append(refs, dir+"."+where)
						return false
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{self + ".Scan"}; !slices.Equal(refs, want) {
		t.Errorf("ParseLine is referenced outside bench/ by %v, want %v", refs, want)
	}
}
