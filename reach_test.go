package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNonTestCodeIsReachable fails on any non-test declaration that no
// program, example or benchmark reaches: code only tests call is either
// moved into a _test.go file or deleted. A declaration another package's
// tests need as a hook may stay when testdata/reach_allow.txt names it
// with a reason; an entry there that is reachable again or gone fails
// too, so the list only shrinks.
func TestNonTestCodeIsReachable(t *testing.T) {
	dead, err := unreachableDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readReachAllow("testdata/reach_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range dead {
		found[d.key] = true
		if !allow[d.key] {
			t.Errorf("%s: %s is reached only from tests: delete it, or move it into a _test.go file", d.pos, d.key)
		}
	}
	for key := range allow {
		if !found[key] {
			t.Errorf("testdata/reach_allow.txt: %s is reachable or no longer exists: drop its entry", key)
		}
	}
}

// TestReachScanFindsPlantedDeadCode runs the scan on a fixture module
// holding one declaration of each kind the scan must tell apart, so a
// scan that reports nothing (or everything) fails here.
func TestReachScanFindsPlantedDeadCode(t *testing.T) {
	dead, err := unreachableDecls("testdata/reach")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.key)
	}
	want := []string{"internal/lib.Dead", "internal/lib.OnlyTests"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unreachable = %v, want %v", got, want)
	}
}

// stdlibMethods are method names the standard library calls through an
// interface, so no call site in the module names them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "WriteHeader": true,
	"Write": true, "Read": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
}

// reachDecl is one top-level declaration. Its key is the package's
// directory relative to the module root, then the name; a method's name
// is (Recv).Name.
type reachDecl struct {
	key     string
	pos     token.Position
	pkg     string
	imports map[string]string // local name → module-relative dir, "" outside the module
	nodes   []ast.Node        // what the declaration refers to
	group   []string          // const block members that share implicit values
	root    bool
}

// unreachableDecls parses every non-test .go file under root (skipping
// testdata and dot/underscore directories) and returns, sorted by key,
// the declarations that no root reaches. Edges are followed by name only:
// a bare identifier reaches its package's declaration of that name,
// pkg.Name reaches that package's, and x.Name reaches every method of
// that name. Roots are main and init, every declaration under bench/ and
// examples/, blank vars, and the methods in stdlibMethods.
func unreachableDecls(root string) ([]*reachDecl, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	decls := map[string]*reachDecl{}
	methods := map[string][]string{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		rooted := pkg == "bench" || strings.HasPrefix(pkg, "bench/") || pkg == "examples" || strings.HasPrefix(pkg, "examples/")
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ""
			if strings.HasPrefix(p, mod+"/") {
				imports[local] = strings.TrimPrefix(p, mod+"/")
			}
		}
		add := func(key string, pos token.Pos, root bool, nodes ...ast.Node) {
			decls[key] = &reachDecl{key: key, pos: fset.Position(pos), pkg: pkg, imports: imports, nodes: nodes, root: rooted || root}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				nodes := []ast.Node{decl.Type}
				if decl.Body != nil {
					nodes = append(nodes, decl.Body)
				}
				if decl.Recv == nil {
					add(pkg+"."+name, decl.Pos(), name == "main" || name == "init", nodes...)
					continue
				}
				key := pkg + ".(" + recvName(decl.Recv.List[0].Type) + ")." + name
				add(key, decl.Pos(), stdlibMethods[name], append(nodes, decl.Recv)...)
				methods[name] = append(methods[name], key)
			case *ast.GenDecl:
				var group []string
				implicit := false
				for _, s := range decl.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						nodes := []ast.Node{s.Type}
						if s.TypeParams != nil {
							nodes = append(nodes, s.TypeParams)
						}
						add(pkg+"."+s.Name.Name, s.Pos(), false, nodes...)
					case *ast.ValueSpec:
						implicit = implicit || len(s.Values) == 0 && decl.Tok == token.CONST
						nodes := []ast.Node{}
						if s.Type != nil {
							nodes = append(nodes, s.Type)
						}
						for _, v := range s.Values {
							nodes = append(nodes, v)
						}
						for _, n := range s.Names {
							if n.Name == "_" {
								add(pkg+"._@"+fset.Position(n.Pos()).String(), n.Pos(), true, nodes...)
								continue
							}
							add(pkg+"."+n.Name, n.Pos(), false, nodes...)
							group = append(group, pkg+"."+n.Name)
						}
					}
				}
				if implicit {
					for _, k := range group {
						decls[k].group = group
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	reached := map[string]bool{}
	var work []*reachDecl
	reach := func(key string) {
		if d, ok := decls[key]; ok && !reached[key] {
			reached[key] = true
			work = append(work, d)
		}
	}
	for key, d := range decls {
		if d.root {
			reach(key)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, k := range d.group {
			reach(k)
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				ast.Inspect(n.Type, visit) // names are bindings, not references
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := d.imports[x.Name]; ok {
						reach(dir + "." + n.Sel.Name)
						return false
					}
				}
				for _, k := range methods[n.Sel.Name] {
					reach(k)
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				reach(d.pkg + "." + n.Name)
			}
			return true
		}
		for _, n := range d.nodes {
			ast.Inspect(n, visit)
		}
	}

	var dead []*reachDecl
	for key, d := range decls {
		if !reached[key] {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	return dead, nil
}

// recvName names a method's receiver type without pointer or type
// parameters.
func recvName(e ast.Expr) string {
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
			return "?"
		}
	}
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(p), nil
		}
	}
	return "", os.ErrNotExist
}

// readReachAllow reads the allowlist: one declaration key per line, then
// the reason it stays; blank lines and # comments are skipped.
func readReachAllow(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s gives no reason", path, n+1, key)
		}
		allow[key] = true
	}
	return allow, nil
}
