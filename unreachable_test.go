package lbcast

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachableAllowlist names the non-test declarations that no production
// path reaches but that stay, each with the reason. Keys are
// "pkgpath.Name" or "pkgpath.Type.Method".
var unreachableAllowlist = map[string]string{
	"lbcast/internal/baseline.NewRoundRobin":             "the bank's scheduler comparison (ROADMAP direction 11) gives it a caller",
	"lbcast/internal/core.NodeStateBank.SetRecordEvents": "direction 11's banked experiment runs record events through it; the root golden test turns it on",
	"lbcast/internal/stats.Histogram.Counts":             "workload's Metrics fingerprint, a test oracle whose pinned hashes cover both latency histograms bin by bin, reads the bins through it",
}

// stdlibMethodNames are methods the standard library calls through its own
// interfaces (fmt.Stringer, error, json.Marshaler, sort.Interface), so a
// reached type keeps them although no module code names them.
var stdlibMethodNames = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true,
}

// TestNoUnreachableDeclarations type-checks every package of the module and
// fails on each non-test declaration that no production path reaches. The
// roots are the main packages (main and init), every init function and named
// package-level variable, the exported API of package lbcast, and every
// declaration of the nested benchmark module, tests included, which compiles
// against the internal packages. A reached declaration reaches every module
// object its source names; a reached type reaches its methods whose name
// belongs to an interface declared in the module or to stdlibMethodNames.
// Blank assertions such as `var _ I = (*T)(nil)` are not roots.
func TestNoUnreachableDeclarations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m := loadModule(t, ".", "lbcast")
	// An allowlisted declaration keeps what it names, but must itself still
	// be unreached, or the entry is stale.
	stale := maps.Clone(unreachableAllowlist)
	var kept []types.Object
	for _, d := range m.decls {
		if _, ok := stale[d.key()]; ok && !m.reached[d.obj] {
			delete(stale, d.key())
			kept = append(kept, d.obj)
		}
	}
	for _, obj := range kept {
		m.reach(obj)
	}
	var unreached []string
	for _, d := range m.decls {
		if !m.reached[d.obj] {
			unreached = append(unreached, m.fset.Position(d.pos).String()+": "+d.key())
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no production path reaches %s", u)
	}
	for key := range stale {
		t.Errorf("allowlisted %s is reached or gone; drop it from unreachableAllowlist", key)
	}
}

// modDecl is one package-level declaration of the module: a function,
// method, type, constant or variable.
type modDecl struct {
	obj  types.Object
	pos  token.Pos
	node ast.Node // source walked when the declaration is reached
	root bool
}

func (d *modDecl) key() string {
	if f, ok := d.obj.(*types.Func); ok {
		if recv := f.Signature().Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			return f.Pkg().Path() + "." + rt.(*types.Named).Obj().Name() + "." + f.Name()
		}
	}
	return d.obj.Pkg().Path() + "." + d.obj.Name()
}

type module struct {
	t          *testing.T
	fset       *token.FileSet
	std        types.Importer
	dirs       map[string]string // import path → directory
	pkgs       map[string]*types.Package
	info       *types.Info
	decls      []*modDecl
	inits      []*ast.FuncDecl
	byObj      map[types.Object]*modDecl
	ifaceNames map[string]bool // method names of the module's named interfaces
	reached    map[types.Object]bool
}

// loadModule parses and type-checks every package under root (module path
// modPath), then marks what the roots reach.
func loadModule(t *testing.T, root, modPath string) *module {
	t.Helper()
	m := &module{
		t:          t,
		fset:       token.NewFileSet(),
		std:        importer.Default(),
		dirs:       map[string]string{},
		pkgs:       map[string]*types.Package{},
		info:       &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		byObj:      map[types.Object]*modDecl{},
		ifaceNames: map[string]bool{},
		reached:    map[types.Object]bool{},
	}
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() {
			return nil
		}
		if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if gos, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gos) > 0 {
			m.dirs[pathJoin(modPath, filepath.ToSlash(path))] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range m.dirs {
		m.check(path)
	}
	m.mark()
	return m
}

func pathJoin(modPath, rel string) string {
	if rel == "." {
		return modPath
	}
	return modPath + "/" + rel
}

func (m *module) Import(path string) (*types.Package, error) {
	if _, ok := m.dirs[path]; ok {
		return m.check(path), nil
	}
	return m.std.Import(path)
}

// check type-checks the package at path once and records its declarations.
func (m *module) check(path string) *types.Package {
	if p, ok := m.pkgs[path]; ok {
		return p
	}
	dir := m.dirs[path]
	bench := path == "lbcast/benchmark" || strings.HasPrefix(path, "lbcast/benchmark/")
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		m.t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") && !bench {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			m.t.Fatal(err)
		}
		if bench && strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		m.t.Fatalf("type-check %s: %v", path, err)
	}
	m.pkgs[path] = pkg
	for _, f := range files {
		m.collect(pkg, f, bench)
	}
	return pkg
}

func (m *module) add(d *modDecl) {
	m.decls = append(m.decls, d)
	m.byObj[d.obj] = d
}

func (m *module) collect(pkg *types.Package, f *ast.File, bench bool) {
	exportedRoot := pkg.Path() == "lbcast"
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil && decl.Name.Name == "init" {
				m.inits = append(m.inits, decl)
				continue
			}
			root := bench || (pkg.Name() == "main" && decl.Name.Name == "main") ||
				(exportedRoot && decl.Name.IsExported() && (decl.Recv == nil || exportedRecv(decl)))
			m.add(&modDecl{obj: m.info.Defs[decl.Name], pos: decl.Name.Pos(), node: decl, root: root})
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					obj := m.info.Defs[spec.Name]
					root := bench || (exportedRoot && spec.Name.IsExported())
					m.add(&modDecl{obj: obj, pos: spec.Name.Pos(), node: spec, root: root})
					if it, ok := obj.Type().Underlying().(*types.Interface); ok {
						for i := 0; i < it.NumMethods(); i++ {
							m.ifaceNames[it.Method(i).Name()] = true
						}
					}
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						if name.Name == "_" {
							continue // a blank assertion is not a root
						}
						root := bench || decl.Tok == token.VAR || (exportedRoot && name.IsExported())
						m.add(&modDecl{obj: m.info.Defs[name], pos: name.Pos(), node: spec, root: root})
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a method's receiver type is exported.
func exportedRecv(fd *ast.FuncDecl) bool {
	rt := fd.Recv.List[0].Type
	for {
		switch x := rt.(type) {
		case *ast.StarExpr:
			rt = x.X
		case *ast.IndexExpr:
			rt = x.X
		case *ast.IndexListExpr:
			rt = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// walk marks every module object that n names.
func (m *module) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := m.info.Uses[id]; obj != nil {
				m.reach(obj)
			}
		}
		return true
	})
}

func (m *module) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d, ok := m.byObj[obj]
	if !ok || m.reached[obj] {
		return
	}
	m.reached[obj] = true
	m.walk(d.node)
	if tn, ok := obj.(*types.TypeName); ok {
		if named, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if f := named.Method(i); m.ifaceNames[f.Name()] || stdlibMethodNames[f.Name()] {
					m.reach(f)
				}
			}
		}
	}
}

// mark walks from every root. Interface method names are known only once
// every package is collected, so marking waits for the whole module.
func (m *module) mark() {
	for _, fd := range m.inits {
		m.walk(fd)
	}
	for _, d := range m.decls {
		if d.root {
			m.reach(d.obj)
		}
	}
}
