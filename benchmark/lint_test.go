package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The benchmark reaches the system through the prepare facade, the HTTP
// handler and each layer's exported functions, and must outlive the
// simplification the ROADMAP schedules. This test fails on any
// reference to what that work deletes: the batch-mode and retrain-mode
// knobs, internal/loadgen, the internal/unsupervised stack and the
// kmeans/zscore kinds in front of it, the scalar Sampler.Collect and
// Predictor.PredictWindow paths, the experiment package's worker-pool
// aliases, and the legacy Unsupervised switches.

var forbiddenImports = map[string]bool{
	"prepare/internal/loadgen":      true,
	"prepare/internal/unsupervised": true,
}

// forbiddenSelectors are names that may not follow a dot anywhere.
var forbiddenSelectors = map[string]bool{
	"BatchMode": true, "BatchAuto": true, "BatchOn": true, "BatchOff": true,
	"RetrainMode": true, "RetrainAuto": true, "RetrainBatch": true, "RetrainIncremental": true,
	"Collect": true, "PredictWindow": true,
	"KindKMeans": true, "KindZScore": true, "DetectorKMeans": true, "DetectorZScore": true,
	"KMeansDetector": true, "ZScoreDetector": true, "UnsupervisedKind": true,
	"NewUnsupervised": true, "LoadUnsupervised": true,
	"SetParallelism": true, "Parallelism": true,
	"RunLoadgen": true, "LoadgenProfile": true, "LoadgenConfig": true, "LoadgenReport": true,
}

// forbiddenOn are names forbidden after a given package qualifier only.
var forbiddenOn = map[string]map[string]bool{
	"experiment": {"Runner": true, "DefaultWorkers": true, "SetDefaultWorkers": true},
}

// forbiddenFields may be neither set in a composite literal nor read or
// written through a value (x.Batch); a package-qualified type of the
// same name (server.Batch, wire.Batch: the ingest batch) is fine.
var forbiddenFields = map[string]bool{
	"Batch": true, "RetrainMode": true, "Unsupervised": true, "UnsupervisedDetector": true,
}

var forbiddenStrings = []string{"kmeans", "zscore"}

func TestBenchmarkAvoidsAPIScheduledForDeletion(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "out" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || path == "lint_test.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkgs := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if forbiddenImports[p] {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			pkgs[local] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				x, _ := n.X.(*ast.Ident)
				qualifier := ""
				if x != nil && pkgs[x.Name] {
					qualifier = x.Name
				}
				name := n.Sel.Name
				if forbiddenSelectors[name] || forbiddenOn[qualifier][name] || (forbiddenFields[name] && qualifier == "") {
					t.Errorf("%s references %s", fset.Position(n.Pos()), name)
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && forbiddenFields[k.Name] {
					t.Errorf("%s sets the %s field", fset.Position(n.Pos()), k.Name)
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					for _, s := range forbiddenStrings {
						if strings.Contains(strings.ToLower(n.Value), s) {
							t.Errorf("%s names the %s detector kind", fset.Position(n.Pos()), s)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
