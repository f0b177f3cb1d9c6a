package prepare_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestDetectorPackageImportsStayMinimal enforces the detector layer's
// dependency contract: internal/detector is the interface every scorer
// implements, so it may import only the row vocabulary
// (internal/metrics) and the counters (internal/telemetry) beyond the
// standard library. Model-backed adapters live with their models in
// internal/predict, never here — otherwise every detector user would
// drag in the full prediction stack.
func TestDetectorPackageImportsStayMinimal(t *testing.T) {
	allowed := map[string]bool{
		"prepare/internal/metrics":   true,
		"prepare/internal/telemetry": true,
	}
	fset := token.NewFileSet()
	dir := filepath.Join("internal", "detector")
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
				t.Errorf("%s imports %s; internal/detector may import only internal/metrics and internal/telemetry",
					path, p)
			}
		}
	}
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
