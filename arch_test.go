package prepare_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDetectorPackageImportsStayMinimal enforces the detector layer's
// dependency contract: internal/detector is the interface every scorer
// implements, so it may import only the row vocabulary
// (internal/metrics), the counters (internal/telemetry), the
// checkpoint codec (internal/binenc) and the CPUID probe its vector
// kernels are picked by (internal/cpufeat) beyond the standard library.
// Model-backed adapters live with their models in internal/predict,
// never here — otherwise every detector user would drag in the full
// prediction stack. The codec and the probe are leaves: they import
// nothing from this module.
func TestDetectorPackageImportsStayMinimal(t *testing.T) {
	checkImports(t, filepath.Join("internal", "detector"), map[string]bool{
		"prepare/internal/metrics":   true,
		"prepare/internal/telemetry": true,
		"prepare/internal/binenc":    true,
		"prepare/internal/cpufeat":   true,
	})
	checkImports(t, filepath.Join("internal", "binenc"), nil)
	checkImports(t, filepath.Join("internal", "cpufeat"), nil)
}

// checkImports fails for every import of a prepare/ package outside
// allowed in the non-test files of dir.
func checkImports(t *testing.T, dir string, allowed map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if strings.HasPrefix(p, "prepare/") && !allowed[p] {
				t.Errorf("%s imports %s; %s may import only %v from this module", path, p, dir, sortedKeys(allowed))
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestDecideImportsStayPure enforces the tick's phase contract:
// internal/control/decide.go holds the pure policy step, so beyond the
// standard library it may import only the clock, detector and metrics
// vocabulary — never monitor, telemetry, prevent, placement, infer or
// substrate, which a decide that reached past its arguments would need.
func TestDecideImportsStayPure(t *testing.T) {
	allowed := map[string]bool{
		"prepare/internal/simclock": true,
		"prepare/internal/detector": true,
		"prepare/internal/metrics":  true,
	}
	path := filepath.Join("internal", "control", "decide.go")
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if strings.HasPrefix(p, "prepare/") && !allowed[p] {
			t.Errorf("%s imports %s; decide may import only internal/simclock, internal/detector and internal/metrics",
				path, p)
		}
	}
}

// TestControlLoopPackagesDoNotImportCloudsim enforces the substrate
// boundary: the control-loop packages (control, infer, prevent,
// monitor) must depend only on the neutral substrate contract, never on
// the simulator. The simulator is one substrate implementation among
// others (replay is the second); only composition roots — experiment,
// the facade, commands — may import it.
func TestControlLoopPackagesDoNotImportCloudsim(t *testing.T) {
	const forbidden = "prepare/internal/cloudsim"
	fset := token.NewFileSet()
	for _, pkg := range []string{"control", "infer", "prevent", "monitor"} {
		dir := filepath.Join("internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == forbidden {
					t.Errorf("%s imports %s; control-loop packages must depend only on prepare/internal/substrate",
						path, forbidden)
				}
			}
		}
	}
}

// TestNothingImportsPlacement keeps internal/placement out of the
// control loop: migration takes the substrate's own target choice, and
// the package stays only because the standing benchmark (its own
// module under benchmark/) times it. No package of this module, tests
// included, may import it.
func TestNothingImportsPlacement(t *testing.T) {
	const forbidden = "prepare/internal/placement"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case ".git", "benchmark", filepath.Join("internal", "placement"):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == forbidden {
				t.Errorf("%s imports %s; migration keeps the substrate's choice", path, forbidden)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFacadeAPIGolden pins the root package's exported surface: every
// exported top-level name and method declared in its non-test files,
// sorted, must match testdata/facade_api.txt. A deliberate API change
// regenerates the golden with the command the failure prints.
func TestFacadeAPIGolden(t *testing.T) {
	const golden = "testdata/facade_api.txt"
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var api []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					api = append(api, "func "+d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					api = append(api, "method "+id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							api = append(api, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								api = append(api, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(api)
	got := strings.Join(api, "\n") + "\n"
	want, err := os.ReadFile(golden)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	var diff strings.Builder
	inGot := make(map[string]bool, len(api))
	for _, line := range api {
		inGot[line] = true
	}
	inWant := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		inWant[line] = true
		if line != "" && !inGot[line] {
			diff.WriteString("- " + line + "\n")
		}
	}
	for _, line := range api {
		if !inWant[line] {
			diff.WriteString("+ " + line + "\n")
		}
	}
	tmp, err := os.CreateTemp("", "facade_api-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.WriteString(got); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	t.Errorf("root package API differs from %s (- golden, + source):\n%sregenerate with: cp %s %s",
		golden, diff.String(), tmp.Name(), golden)
}

// TestModuleMapCoversEveryPackage keeps DESIGN.md §3 in step with the
// tree: every Go package directory under internal/, cmd/ and examples/
// needs a row in the module map, and every row names a directory that
// exists.
func TestModuleMapCoversEveryPackage(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## 3.")
	section, _, _ = strings.Cut(section, "\n## 4.")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ = strings.Cut(name, "`")
			rows[name] = true
		}
	}
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil {
				return err
			}
			for _, f := range files {
				if !strings.HasSuffix(f, "_test.go") {
					if !rows[filepath.ToSlash(dir)] {
						t.Errorf("DESIGN.md §3 has no row for package %s", filepath.ToSlash(dir))
					}
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for name := range rows {
		if _, err := os.Stat(filepath.FromSlash(name)); err != nil && name != "prepare" {
			t.Errorf("DESIGN.md §3 has a row for %s, which does not exist", name)
		}
	}
}

// reachAllowed lists what TestEveryFunctionIsReached may leave
// unreached, by package import path or by "pkg.Func"/"pkg.Type.Method"
// name, each with the reason the code does not show.
var reachAllowed = map[string]bool{
	// Only the standing benchmark times it (see TestNothingImportsPlacement);
	// the package goes whole in ROADMAP "Delete what nothing calls" (a).
	"prepare/internal/placement": true,
	// The one offline labeled trace of the replay, control (engine) and
	// server tests; a _test.go file could share it with only one of them.
	"prepare/internal/replay.SyntheticTrace": true,
}

// TestEveryFunctionIsReached fails for every function or method in
// internal/ that nothing reaches from the program's roots: every main
// and init, package-level variable initializers, every function of the
// standing benchmark's module, the root package's exported names, and
// the exported methods of every type the root package's API exposes.
// Test files are not roots, so code that only tests call fails too.
// The scan sees the host's GOOS/GOARCH files only.
func TestEveryFunctionIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules and the standard library from source")
	}
	got, err := unreachedFuncs([]reachModule{
		{path: "prepare", dir: "."},
		{path: "prepare/benchmark", dir: "benchmark", allRoots: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range got {
		if !reachAllowed[u.pkg] && !reachAllowed[u.name] {
			t.Errorf("%s: %s is reached from no main, init, benchmark function or facade API", u.pos, u.name)
		}
	}
}

// TestReachabilityFixture runs the scan over testdata/reach, which
// holds one case of each rule: two functions it must report and three
// it must keep.
func TestReachabilityFixture(t *testing.T) {
	got, err := unreachedFuncs([]reachModule{
		{path: "reach", dir: filepath.Join("testdata", "reach")},
		{path: "reach/second", dir: filepath.Join("testdata", "reach", "second"), allRoots: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, u := range got {
		names = append(names, u.name)
	}
	sort.Strings(names)
	want := []string{"reach/internal/lib.Clock.Tick", "reach/internal/lib.Unused"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("unreached = %v, want %v", names, want)
	}
}

// reachModule is one module of the scan. The first module's root
// package is the facade and its internal/ tree is what is reported;
// every function of an allRoots module is a root.
type reachModule struct {
	path, dir string
	allRoots  bool
}

type unreachedFunc struct {
	pos       token.Position
	pkg, name string
}

type reachPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
	mod   *reachModule
}

type reachScan struct {
	fset  *token.FileSet
	mods  []reachModule
	std   types.Importer
	pkgs  map[string]*reachPkg
	decls map[*types.Func]*ast.FuncDecl
	owner map[*types.Func]*reachPkg
	named []*types.Named // the defined non-interface, non-generic types: what may implement an interface
	seen  map[*types.Func]bool
	work  []*types.Func
	api   map[*types.Named]bool
}

// unreachedFuncs type-checks the non-test files of mods, walks what the
// roots reach and returns the unreached functions and methods of the
// first module's internal/ packages, in file order.
func unreachedFuncs(mods []reachModule) ([]unreachedFunc, error) {
	s := &reachScan{
		fset:  token.NewFileSet(),
		mods:  mods,
		pkgs:  map[string]*reachPkg{},
		decls: map[*types.Func]*ast.FuncDecl{},
		owner: map[*types.Func]*reachPkg{},
		seen:  map[*types.Func]bool{},
		api:   map[*types.Named]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	for i := range mods {
		if err := s.loadTree(&mods[i]); err != nil {
			return nil, err
		}
	}

	// The standard library calls these through its own interfaces, out
	// of the walk's sight.
	for _, iface := range []struct{ pkg, name string }{
		{"", "error"}, {"fmt", "Stringer"}, {"encoding/json", "Marshaler"},
		{"encoding/json", "Unmarshaler"}, {"net/http", "Handler"},
		{"io", "Reader"}, {"io", "Writer"}, {"sort", "Interface"},
	} {
		scope := types.Universe
		if iface.pkg != "" {
			p, err := s.std.Import(iface.pkg)
			if err != nil {
				return nil, err
			}
			scope = p.Scope()
		}
		it := scope.Lookup(iface.name).Type().Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			s.mark(it.Method(i))
		}
	}
	for _, p := range s.pkgs {
		facade := p.types.Path() == mods[0].path
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if p.mod.allRoots || (d.Recv == nil && (name == "main" || name == "init")) ||
						(facade && ast.IsExported(name)) {
						s.mark(p.info.Defs[d.Name].(*types.Func))
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						s.walk(p, d)
					}
				}
			}
		}
		if facade {
			scope := p.types.Scope()
			for _, name := range scope.Names() {
				if obj := scope.Lookup(name); obj.Exported() {
					s.expose(obj.Type())
				}
			}
		}
	}
	for len(s.work) > 0 {
		fn := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		s.reach(fn)
	}

	var out []unreachedFunc
	prefix := mods[0].path + "/internal/"
	for fn, d := range s.decls {
		path := fn.Pkg().Path()
		if s.seen[fn] || !strings.HasPrefix(path, prefix) || d.Name.Name == "init" || d.Name.Name == "_" {
			continue
		}
		name := path + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			name = path + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
		}
		out = append(out, unreachedFunc{pos: s.fset.Position(d.Pos()), pkg: path, name: name})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out, nil
}

// loadTree loads every package directory under m.dir, skipping
// testdata, hidden directories and the directories of other modules.
func (s *reachScan) loadTree(m *reachModule) error {
	return filepath.WalkDir(m.dir, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != m.dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			for _, other := range s.mods {
				if filepath.Clean(other.dir) == dir {
					return filepath.SkipDir
				}
			}
		}
		path := m.path
		if rel, _ := filepath.Rel(m.dir, dir); rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = s.load(path)
		return err
	})
}

// moduleOf returns the module whose path is the longest prefix of
// the import path, or nil for the standard library.
func (s *reachScan) moduleOf(path string) *reachModule {
	var best *reachModule
	for i := range s.mods {
		m := &s.mods[i]
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) && (best == nil || len(m.path) > len(best.path)) {
			best = m
		}
	}
	return best
}

// Import makes the scan the type-checker's importer: module packages
// load from source here, the standard library through the source
// importer.
func (s *reachScan) Import(path string) (*types.Package, error) {
	if s.moduleOf(path) == nil {
		return s.std.Import(path)
	}
	p, err := s.load(path)
	if err == nil && p == nil {
		err = fmt.Errorf("no Go files for %s", path)
	}
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load type-checks one package from the non-test files that
// build.Default selects, or returns nil when there are none.
func (s *reachScan) load(path string) (*reachPkg, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	m := s.moduleOf(path)
	dir := filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(path, m.path)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	tp, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{types: tp, info: info, files: files, mod: m}
	s.pkgs[path] = p
	for _, f := range files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn := info.Defs[d.Name].(*types.Func)
				s.decls[fn], s.owner[fn] = d, p
			}
		}
	}
	for _, name := range tp.Scope().Names() {
		if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
				s.named = append(s.named, n)
			}
		}
	}
	return p, nil
}

func (s *reachScan) mark(fn *types.Func) {
	if fn = fn.Origin(); !s.seen[fn] {
		s.seen[fn] = true
		s.work = append(s.work, fn)
	}
}

// reach marks what a reached function's body names. A reached
// interface method reaches the method of that name on every type that
// implements the interface; a type that only shares the name does not.
func (s *reachScan) reach(fn *types.Func) {
	if d := s.decls[fn]; d != nil {
		if d.Body != nil {
			s.walk(s.owner[fn], d.Body)
		}
		return
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, n := range s.named {
		var t types.Type = n
		if !types.Implements(t, iface) {
			if t = types.NewPointer(n); !types.Implements(t, iface) {
				continue
			}
		}
		if m, _, _ := types.LookupFieldOrMethod(t, false, fn.Pkg(), fn.Name()); m != nil {
			s.mark(m.(*types.Func))
		}
	}
}

// walk marks every function or method the syntax under n names.
func (s *reachScan) walk(p *reachPkg, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := p.info.Uses[id].(*types.Func); ok {
				s.mark(fn)
			}
		}
		return true
	})
}

// expose marks the exported methods of every module type that t makes
// visible to the facade's callers: through aliases, signatures,
// exported fields, element types and the methods of exposed types.
func (s *reachScan) expose(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			s.expose(t.TypeArgs().At(i))
		}
		n := t.Origin()
		if s.api[n] || n.Obj().Pkg() == nil || s.moduleOf(n.Obj().Pkg().Path()) == nil {
			return
		}
		s.api[n] = true
		s.expose(n.Underlying())
		ms := types.NewMethodSet(types.NewPointer(n))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				s.mark(m.(*types.Func))
				s.expose(m.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				s.mark(m)
				s.expose(m.Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() {
				s.expose(f.Type())
			}
		}
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				s.expose(tuple.At(i).Type())
			}
		}
	case *types.Pointer:
		s.expose(t.Elem())
	case *types.Slice:
		s.expose(t.Elem())
	case *types.Array:
		s.expose(t.Elem())
	case *types.Chan:
		s.expose(t.Elem())
	case *types.Map:
		s.expose(t.Key())
		s.expose(t.Elem())
	}
}
