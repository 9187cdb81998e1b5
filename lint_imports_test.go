package fim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// algorithmPackages returns the import paths of the algorithm packages:
// every internal/*/ package whose non-test code calls engine.Register or
// engine.RegisterParallel. Only the engine layer (and the bench harness,
// for its ablation MineFuncs) may depend on them. The public API and the
// command line tools go through the engine registry instead, so that
// adding or removing a miner never touches them; register.go is the one
// sanctioned linking point (blank imports only). The set is derived, not
// listed, so a new or deleted engine package changes it by itself.
func algorithmPackages(t *testing.T) map[string]bool {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join("internal", "*"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs := map[string]bool{}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue // not a directory
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			eng := ""
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == "repro/internal/engine" {
					eng = "engine"
					if imp.Name != nil {
						eng = imp.Name.Name
					}
				}
			}
			if eng == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Register" && sel.Sel.Name != "RegisterParallel") {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == eng {
					pkgs["repro/"+filepath.ToSlash(dir)] = true
				}
				return true
			})
		}
	}
	if !pkgs["repro/internal/core"] {
		t.Fatalf("lint derived algorithm packages %v without internal/core — wrong working directory?", pkgs)
	}
	return pkgs
}

// TestEveryMinerLinked enforces that every engine package is linked where
// miners are looked up by name: register.go (the public API and the
// command line tools) blank-imports exactly the algorithm packages and
// nothing else, and the bench harness imports each of them. A package
// missing from either would register nowhere there, and its name would
// be unknown to fim.Mine or fimbench.
func TestEveryMinerLinked(t *testing.T) {
	pkgs := algorithmPackages(t)
	// imports maps each import path of the file to its import name ("" if
	// unnamed).
	imports := func(path string) map[string]string {
		t.Helper()
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out := map[string]string{}
		for _, imp := range f.Imports {
			name := ""
			if imp.Name != nil {
				name = imp.Name.Name
			}
			out[strings.Trim(imp.Path.Value, `"`)] = name
		}
		return out
	}
	linked := imports("register.go")
	for ip := range pkgs {
		if _, ok := linked[ip]; !ok {
			t.Errorf("register.go does not link engine package %s", ip)
		}
	}
	for ip, name := range linked {
		if !pkgs[ip] {
			t.Errorf("register.go links %s, which registers no engine", ip)
		}
		if name != "_" {
			t.Errorf("register.go imports %s without a blank name; it only links miners", ip)
		}
	}
	bench := imports(filepath.Join("internal", "bench", "bench.go"))
	for ip := range pkgs {
		if _, ok := bench[ip]; !ok {
			t.Errorf("internal/bench/bench.go does not import engine package %s", ip)
		}
	}
}

// TestNoDirectAlgorithmImports enforces the registry architecture:
// fim.go and everything under cmd/ must not import algorithm packages
// directly — dispatch goes through internal/engine. (incremental.go
// carries the one deliberate exception, the core.Incremental re-export,
// and register.go links the miners with blank imports.)
func TestNoDirectAlgorithmImports(t *testing.T) {
	files := []string{"fim.go"}
	err := filepath.Walk("cmd", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatal("lint found no cmd/ sources — wrong working directory?")
	}
	pkgs := algorithmPackages(t)
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if pkgs[ip] {
				t.Errorf("%s imports %s directly; dispatch through the engine registry instead", path, ip)
			}
		}
	}
}

// TestOneDispatchPath enforces that the engine registry is the only way a
// miner runs: no algorithm package exports a function (or method) that
// takes a transaction database (txdb.Source or *txdb.DB) together with a
// result.Reporter — that is, an entry point doing its own validate, prep
// and control steps beside Registration.Run. Ablations are exported as
// engine.MineFuncs over a prepared database instead. Functions returning
// a collected result (the naive oracles) take no Reporter and stay legal.
func TestOneDispatchPath(t *testing.T) {
	isSel := func(e ast.Expr, pkg, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == pkg && sel.Sel.Name == name
	}
	fset := token.NewFileSet()
	for pkg := range algorithmPackages(t) {
		dir := filepath.Join("internal", filepath.Base(pkg))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				var db, rep bool
				for _, p := range fn.Type.Params.List {
					typ := p.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						db = db || isSel(star.X, "txdb", "DB")
					}
					db = db || isSel(typ, "txdb", "Source")
					rep = rep || isSel(typ, "result", "Reporter")
				}
				if db && rep {
					t.Errorf("%s: %s takes a transaction database and a result.Reporter; run miners through the engine registry (an ablation is an engine.MineFunc)",
						fset.Position(fn.Pos()), fn.Name.Name)
				}
			}
		}
	}
}

// TestOneIsTaLoop enforces that IsTa's pass loop (§3.2: intersect each
// transaction into the prefix tree, count down remain, prune) is written
// once, as core.Intersect: no non-test file outside internal/core may
// reference core.NewTree, so no other package can build a tree and drive
// AddWeighted and the maintenance trigger itself. perfbench/ is a
// separate module (its own go.mod) and is not scanned; its mirror of the
// loop is the benchmark's own instrumentation.
func TestOneIsTaLoop(t *testing.T) {
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // another module
			}
			if path == filepath.Join("internal", "core") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		scanned++
		name := ""
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "repro/internal/core" {
				name = "core"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewTree" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
				t.Errorf("%s: references core.NewTree; run IsTa's pass loop through core.Intersect", fset.Position(sel.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("lint scanned only %d files — wrong working directory?", scanned)
	}
}

// TestTxdbLayering enforces the columnar store's position at the bottom
// of the package DAG. Four rules keep the representation truly shared:
//
//  1. internal/tidset is a leaf: it may import nothing of this module at
//     all (it sits next to internal/itemset), so every layer — txdb,
//     miners, parallel engines — can share one kernel implementation.
//     internal/obs, the one counter schema that mining, engine, bench
//     and the commands share, is a leaf for the same reason.
//  2. internal/txdb may import nothing of this module above
//     internal/itemset and internal/tidset — it must stay usable from
//     every layer without dragging in miners, prep, or I/O.
//  3. internal/dataset is the FIMI codec over the store: it may import
//     nothing of this module but internal/itemset and internal/txdb.
//  4. Algorithm packages consume transactions through txdb (or the
//     Source interface) only; importing internal/dataset from non-test
//     code would couple miners to the FIMI codec. They may use tidset
//     directly (shared kernels are the point), which rule 1 keeps
//     cycle-free.
func TestTxdbLayering(t *testing.T) {
	checkImports := func(dir string, allowed func(ip string) bool, hint string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if strings.HasPrefix(ip, "repro/") && !allowed(ip) {
					t.Errorf("%s imports %s; %s", path, ip, hint)
				}
			}
		}
	}

	checkImports("internal/tidset",
		func(ip string) bool { return false },
		"tidset is a leaf package and may not import anything of this module")

	checkImports("internal/obs",
		func(ip string) bool { return false },
		"obs is a leaf package and may not import anything of this module")

	checkImports("internal/txdb",
		func(ip string) bool {
			return ip == "repro/internal/itemset" || ip == "repro/internal/tidset"
		},
		"txdb sits at the bottom of the DAG and may only use internal/itemset and internal/tidset")

	checkImports("internal/dataset",
		func(ip string) bool {
			return ip == "repro/internal/itemset" || ip == "repro/internal/txdb"
		},
		"the dataset codec may only use internal/itemset and internal/txdb")

	for pkg := range algorithmPackages(t) {
		dir := filepath.Join("internal", filepath.Base(pkg))
		checkImports(dir,
			func(ip string) bool { return ip != "repro/internal/dataset" },
			"miners consume transactions via internal/txdb, not the dataset I/O layer")
	}
}
