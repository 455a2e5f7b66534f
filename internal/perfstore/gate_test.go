package perfstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestStateChangesGoThroughOnePath holds the storage engine to one
// routine per state change, read from the package's non-test files:
// only swap writes a segment or the manifest, only Sync's read-ahead and
// advance read a perflog tail, a sealed segment gets its one in-memory
// form only from decodeSegment, on a load or on the write that sealed
// it, a segment's bytes come only from encodeRows, and the forks those
// routines replaced — the tombstones, the second posting builder, the
// decline-without-parsing commit path, the unused Systems method, and the
// entry-per-row form (stored, its arena, its encoder and its predicates)
// — stay gone.
func TestStateChangesGoThroughOnePath(t *testing.T) {
	callers := map[string][]string{
		"saveManifest":  {"(Store).swap"},
		"writeSegment":  {"(Store).swap"},
		"encodeRows":    {"writeSegment"},
		"readTail":      {"(Store).Sync", "(Store).advance"},
		"decodeSegment": {"(segment).load", "writeSegment"},
	}
	gone := map[string]bool{
		"buildPostings": true, "compactLocked": true, "(Store).Systems": true,
		"stored.dead": true, "shard.deadN": true, "shard.live": true, "parseGap": true,
		"stored": true, "(columns).arena": true, "columns.arena": true, "matchEntry": true, "entryField": true,
		"encodeSegment": true, "writeSegmentFile": true, "view.entries": true,
	}
	seen := map[string]bool{}
	var stray []string
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
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
		for _, decl := range f.Decls {
			owner := ownerName(decl)
			if gone[owner] {
				stray = append(stray, fset.Position(decl.Pos()).String()+": "+owner+" is back")
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								if qual := n.Name.Name + "." + name.Name; gone[qual] {
									stray = append(stray, fset.Position(name.Pos()).String()+": field "+qual+" is back")
								}
							}
						}
					}
				case *ast.Ident:
					if gone[n.Name] {
						stray = append(stray, fset.Position(n.Pos()).String()+": "+n.Name+" is back")
					}
				case *ast.CallExpr:
					fn, ok := n.Fun.(*ast.Ident)
					if !ok || callers[fn.Name] == nil {
						return true
					}
					if slices.Contains(callers[fn.Name], owner) {
						seen[fn.Name+" in "+owner] = true
					} else {
						stray = append(stray, fset.Position(n.Pos()).String()+": "+fn.Name+" called in "+owner)
					}
				}
				return true
			})
		}
	}
	if scanned == 0 {
		t.Fatal("no non-test Go files: the gate is looking in the wrong place")
	}
	sort.Strings(stray)
	for _, s := range stray {
		t.Error(s)
	}
	for fn, owners := range callers {
		for _, owner := range owners {
			if !seen[fn+" in "+owner] {
				t.Errorf("%s no longer calls %s: the gate no longer sees the one path", owner, fn)
			}
		}
	}
}

// ownerName names a top-level declaration: a function, a method as
// (Recv).Name, or "var"/"const"/"type" for the rest.
func ownerName(d ast.Decl) string {
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
