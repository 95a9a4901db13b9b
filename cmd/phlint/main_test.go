package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestUnitcheckAnalyzesTestBearingPackage drives the vettool path the way
// go vet does for a package with in-package tests: one unit whose files
// include the _test.go ones. A finding planted in the package's own file
// must fail the unit; a unit of test files alone is skipped.
func TestUnitcheckAnalyzesTestBearingPackage(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "swp.go")
	test := filepath.Join(dir, "swp_test.go")
	files := map[string]string{
		src:  "package swp\n\nfunc equal(a, b []byte) bool { return string(a) == string(b) }\n",
		test: "package swp\n\nfunc same(a, b []byte) bool { return string(a) == string(b) }\n",
	}
	for name, body := range files {
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unit := func(goFiles ...string) int {
		data, err := json.Marshal(vetConfig{
			ImportPath: "fixture/internal/swp",
			GoFiles:    goFiles,
			VetxOutput: filepath.Join(dir, "vetx"),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := filepath.Join(dir, "unit.cfg")
		if err := os.WriteFile(cfg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return unitcheck(cfg)
	}
	if code := unit(src, test); code != 2 {
		t.Errorf("a test-bearing unit with a ctcompare finding exits %d, want 2", code)
	}
	if code := unit(test); code != 0 {
		t.Errorf("a unit of test files alone exits %d, want 0 (skipped)", code)
	}
}
