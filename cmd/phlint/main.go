// Command phlint runs the repo's analyzer suite (internal/analysis) in
// two modes:
//
// Standalone, for CI gates and local runs:
//
//	phlint [-o findings.json] [packages ...]
//
// loads the packages (default ./...), prints surviving findings
// vet-style, optionally writes them as a JSON artifact, and exits 1 if
// there are any.
//
// As a vettool, speaking cmd/go's unitchecker protocol:
//
//	go vet -vettool=$(which phlint) ./...
//
// cmd/go probes the tool with -V=full (identity/version handshake) and
// -flags (supported flag listing), then invokes it once per package
// with a JSON .cfg describing the files, import map, and export data.
// Dependency-only invocations (VetxOnly) and units of test files alone
// write their facts file and exit; every other unit's non-test files are
// type-checked from the config's export data and analyzed, with
// diagnostics on stderr and exit status 2 — the unitchecker convention
// cmd/go maps to a failed vet run.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
)

func main() {
	versionFlag := flag.String("V", "", "print version and exit (-V=full for the go vet handshake)")
	flagsFlag := flag.Bool("flags", false, "print the JSON flag description go vet expects and exit")
	outFlag := flag.String("o", "", "standalone mode: also write findings to this file as JSON")
	flag.Parse()

	if *versionFlag != "" {
		printVersion()
		return
	}
	if *flagsFlag {
		// No tool-specific flags are forwarded through go vet.
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}
	os.Exit(standalone(args, *outFlag))
}

// printVersion answers cmd/go's -V=full identity probe: the line must
// start with "<name> version" and the remainder keys the build cache,
// so it hashes the tool's own binary.
func printVersion() {
	name := filepath.Base(os.Args[0])
	data, err := os.ReadFile(os.Args[0])
	if err != nil {
		fmt.Printf("%s version devel\n", name)
		return
	}
	h := sha256.Sum256(data)
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", name, string(h[:12]))
}

// standalone loads the patterns itself and reports findings.
func standalone(patterns []string, outFile string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 3
	}
	findings := []analysis.Finding{}
	for _, t := range targets {
		fs, err := analysis.Run(t, suite.All)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 3
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if outFile != "" {
		data, err := json.MarshalIndent(findings, "", "  ")
		if err == nil {
			err = os.WriteFile(outFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "phlint: writing %s: %v\n", outFile, err)
			return 3
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// vetConfig is the slice of cmd/go's unitchecker config the tool needs.
type vetConfig struct {
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// unitcheck handles one go vet package invocation.
func unitcheck(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phlint: %v\n", err)
		return 3
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "phlint: parsing %s: %v\n", cfgFile, err)
		return 3
	}
	// The facts file must exist for cmd/go's cache bookkeeping even
	// though this suite computes no cross-package facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "phlint: %v\n", err)
			return 3
		}
	}
	// Dependency-only passes exist to produce facts. Test files are
	// exempt from the invariants (benchmarks sleep, fixtures compare with
	// bytes.Equal), but go vet hands a package that has in-package tests
	// over as ONE unit, its test files included, so the unit's other
	// files are analyzed and only a unit with none (an external _test
	// package) is skipped.
	if cfg.VetxOnly {
		return 0
	}
	var files []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	imp := load.ExportImporter(fset, func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		return f, ok
	})
	target, err := load.Check(cfg.ImportPath, fset, files, imp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phlint: %v\n", err)
		return 3
	}
	findings, err := analysis.Run(target, suite.All)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phlint: %v\n", err)
		return 3
	}
	var code int
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", f.Position, f.Message, f.Analyzer)
		code = 2
	}
	return code
}
