package simdet_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"appfit/internal/lint/linttest"
	"appfit/internal/lint/simdet"
)

func TestSimdetDirectivePackage(t *testing.T) {
	linttest.Run(t, "testdata/src/a", simdet.Analyzer)
}

func TestSimdetOutOfScopePackage(t *testing.T) {
	linttest.Run(t, "testdata/src/b", simdet.Analyzer)
}

// TestDefaultPackagesExist holds every DefaultPackages root to a package
// directory in the module, so a root left behind by a deleted package
// fails here instead of silently scoping nothing.
func TestDefaultPackagesExist(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	const module = "module appfit\n"
	if !strings.HasPrefix(string(mod), module) {
		t.Fatalf("%s/go.mod does not start with %q", root, module)
	}
	for _, pkg := range simdet.DefaultPackages {
		rel, ok := strings.CutPrefix(pkg, "appfit/")
		if !ok {
			t.Errorf("%s is outside module appfit", pkg)
			continue
		}
		goFiles, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(rel), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(goFiles) == 0 {
			t.Errorf("%s names no package directory in the module", pkg)
		}
	}
}
