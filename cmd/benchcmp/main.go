// Command benchcmp compares Go benchmarks between a git revision and the
// working tree, or a second revision, and says whether a difference is
// more than noise.
//
// Usage:
//
//	benchcmp -base REV -bench REGEX [-head REV] [-pkg ./internal/swp] [-pairs 10]
//	         [-cpu 1] [-benchtime 1s] [-ledger BENCH_<n>.json]
//
// It extracts each revision with git archive into a temporary directory
// (the working tree is used in place), builds the package's test binary
// once per side, and runs the two in ABBA-interleaved pairs — base then
// head, head then base, … — so that a drift of the machine weighs on both
// sides alike. Every benchmark line counts: ns/op, B/op, allocs/op and
// custom units (b.ReportMetric's ns/tuple, say).
//
// For each benchmark and unit it prints each side's median and
// quartiles, the ratio of the medians (head over base), the pairs head
// won, and the two-sided sign-test p of that count. A verdict — "faster"
// or "slower" for a time, "better" or "worse" for another unit — is
// printed only when at least 80 % of the pairs agree and p <= 0.05; ties
// count for neither side. A benchmark that ran on one side only is
// reported as missing on the other. -ledger appends the comparison, with
// the box it ran on, to a JSON file: the record a kernel claim quotes.
package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// key names one measurement of a run: a benchmark and a unit.
type key struct{ Bench, Unit string }

// sample is what one run measured.
type sample map[key]float64

// parse reads benchmark result lines — a name, an iteration count and
// value–unit pairs — from a test binary's output. Any other line is
// ignored; a benchmark printed twice keeps its last values.
func parse(out string) sample {
	s := sample{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				s[key{f[0], f[i+1]}] = v
			}
		}
	}
	return s
}

// baseFirst reports whether pair i runs the base binary first: ABBA
// order, base first in every even pair.
func baseFirst(i int) bool { return i%2 == 0 }

// signTest is the two-sided sign-test p of won wins against lost losses:
// twice the binomial tail of the larger count, at most 1.
func signTest(won, lost int) float64 {
	n := won + lost
	if n == 0 {
		return 1
	}
	return math.Min(1, 2*stats.BinomialTail(n, 0.5, max(won, lost)))
}

// isTime reports whether unit measures time, so that its verdicts read
// "faster" and "slower".
func isTime(unit string) bool {
	u, _, _ := strings.Cut(unit, "/")
	return slices.Contains([]string{"ns", "us", "µs", "ms", "s"}, u)
}

// quart is a side's median and quartiles.
type quart struct{ Median, Q1, Q3 float64 }

// quartiles returns the median and quartiles of xs, linearly
// interpolated between order statistics.
func quartiles(xs []float64) quart {
	s := slices.Sorted(slices.Values(xs))
	at := func(q float64) float64 {
		h := q * float64(len(s)-1)
		lo := int(math.Floor(h))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return quart{at(0.5), at(0.25), at(0.75)}
}

// row is one benchmark and unit compared over the pairs.
type row struct {
	Bench, Unit string
	Base, Head  quart
	Ratio       float64 // head's median over base's
	Won, Lost   int     // pairs head won and lost
	Pairs       int
	P           float64
	Verdict     string `json:",omitempty"`
}

// missing is a benchmark and unit that ran on one side only, and what
// it measured there.
type missing struct {
	Bench, Unit string
	On          string // the side it is missing on: "base" or "head"
	Other       quart
}

// compare turns the pairs' samples into rows, ordered by benchmark and
// unit, and the measurements one side lacks.
func compare(base, head []sample) ([]row, []missing) {
	seen := map[key]bool{}
	for _, s := range slices.Concat(base, head) {
		for k := range s {
			seen[k] = true
		}
	}
	keys := slices.SortedFunc(maps.Keys(seen), func(a, b key) int { return strings.Compare(a.Bench+" "+a.Unit, b.Bench+" "+b.Unit) })
	var rows []row
	var gone []missing
	for _, k := range keys {
		var b, h []float64
		r := row{Bench: k.Bench, Unit: k.Unit}
		for i := range base {
			bv, bok := base[i][k]
			hv, hok := head[i][k]
			if bok {
				b = append(b, bv)
			}
			if hok {
				h = append(h, hv)
			}
			if !bok || !hok {
				continue
			}
			r.Pairs++
			better, worse := hv < bv, hv > bv
			if strings.HasSuffix(k.Unit, "/s") { // a rate: higher is better
				better, worse = worse, better
			}
			if better {
				r.Won++
			} else if worse {
				r.Lost++
			}
		}
		if len(b) == 0 || len(h) == 0 {
			on, have := "base", h
			if len(h) == 0 {
				on, have = "head", b
			}
			gone = append(gone, missing{k.Bench, k.Unit, on, quartiles(have)})
			continue
		}
		r.Base, r.Head = quartiles(b), quartiles(h)
		if r.Ratio = 1; r.Base.Median != r.Head.Median {
			r.Ratio = r.Head.Median / r.Base.Median
		}
		r.P = signTest(r.Won, r.Lost)
		r.Verdict = verdict(r)
		rows = append(rows, r)
	}
	return rows, gone
}

// verdict is a row's verdict: a side must win at least 80 % of the pairs
// at a sign-test p of at most 0.05.
func verdict(r row) string {
	good, bad := "better", "worse"
	if isTime(r.Unit) {
		good, bad = "faster", "slower"
	}
	switch {
	case r.P <= 0.05 && 5*r.Won >= 4*r.Pairs:
		return good
	case r.P <= 0.05 && 5*r.Lost >= 4*r.Pairs:
		return bad
	}
	return ""
}

// side is one revision's test binary and the directory it runs in.
type side struct{ name, bin, dir string }

// extract writes the tree of rev into dir through git archive.
func extract(rev, dir string) error {
	data, err := exec.Command("git", "archive", "--format=tar", rev).Output()
	if err != nil {
		return err
	}
	tr := tar.NewReader(bytes.NewReader(data))
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, h.Name)
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("archive of %s: entry %q leaves the tree", rev, h.Name)
		}
		if h.Typeflag != tar.TypeReg {
			continue // directories are made for the files in them
		}
		data, err := io.ReadAll(tr)
		if err == nil {
			err = os.MkdirAll(filepath.Dir(path), 0o755)
		}
		if err == nil {
			err = os.WriteFile(path, data, os.FileMode(h.Mode)&0o777)
		}
		if err != nil {
			return err
		}
	}
}

// build readies a side: rev extracted into work (the working tree, root,
// when rev is empty) and its test binary of pkg built there.
func build(name, rev, root, work, pkg string) (side, error) {
	tree := root
	if rev != "" {
		tree = filepath.Join(work, name)
		if err := extract(rev, tree); err != nil {
			return side{}, fmt.Errorf("extracting %s: %w", rev, err)
		}
	}
	s := side{name: name, bin: filepath.Join(work, name+".test"), dir: filepath.Join(tree, pkg)}
	cmd := exec.Command("go", "test", "-c", "-o", s.bin, ".")
	cmd.Dir, cmd.Stdout, cmd.Stderr = s.dir, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return side{}, fmt.Errorf("building %s's test binary of %s: %w", name, pkg, err)
	}
	return s, nil
}

// run runs a side's benchmarks once.
func (s side) run(args []string) (sample, error) {
	cmd := exec.Command(s.bin, args...)
	cmd.Dir, cmd.Stderr = s.dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", s.name, err, out)
	}
	return parse(string(out)), nil
}

// box describes the machine a comparison ran on.
type box struct {
	GOOS, GOARCH, Go, CPU string
	NumCPU                int
}

func thisBox() box {
	b := box{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version(), NumCPU: runtime.NumCPU()}
	info, _ := os.ReadFile("/proc/cpuinfo") // the CPU's name, where Linux tells it
	if _, name, ok := strings.Cut(string(info), "model name"); ok {
		name, _, _ = strings.Cut(name, "\n")
		b.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
	}
	return b
}

// comparison is one invocation's record in a ledger.
type comparison struct {
	Base, Head, Pkg, Bench string
	CPU, Benchtime         string `json:",omitempty"`
	Pairs                  int
	When                   string
	Box                    box
	Rows                   []row
	Missing                []missing `json:",omitempty"`
}

// appendLedger appends c to the JSON list of comparisons in path.
func appendLedger(path string, c comparison) error {
	var all []comparison
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("ledger %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(append(all, c), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints the rows and the missing measurements.
func report(w io.Writer, rows []row, gone []missing) {
	fmt.Fprintf(w, "%-44s %-10s %28s %28s %7s %6s %7s  %s\n", "benchmark", "unit", "base median [q1, q3]", "head median [q1, q3]", "ratio", "won", "p", "verdict")
	q := func(v quart) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", v.Median, v.Q1, v.Q3) }
	for _, r := range rows {
		fmt.Fprintf(w, "%-44s %-10s %28s %28s %7.3f %6s %7.3g  %s\n", r.Bench, r.Unit, q(r.Base), q(r.Head), r.Ratio, fmt.Sprintf("%d/%d", r.Won, r.Pairs), r.P, r.Verdict)
	}
	for _, m := range gone {
		fmt.Fprintf(w, "%s %s: missing on the %s side; the other's %s\n", m.Bench, m.Unit, m.On, q(m.Other))
	}
}

func main() {
	baseRev := flag.String("base", "", "the base revision (required)")
	headRev := flag.String("head", "", "the head revision; the working tree when empty")
	bench := flag.String("bench", "", "the benchmarks to run, a -test.bench regular expression (required)")
	pkg := flag.String("pkg", ".", "the package, relative to the repository root")
	pairs := flag.Int("pairs", 10, "how many ABBA-interleaved pairs of runs")
	cpu := flag.String("cpu", "", "passed to the binaries as -test.cpu")
	benchtime := flag.String("benchtime", "", "passed to the binaries as -test.benchtime")
	ledger := flag.String("ledger", "", "a JSON file to append the comparison to")
	flag.Parse()
	if *baseRev == "" || *bench == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	work, err := os.MkdirTemp("", "benchcmp-")
	check := func(err error) {
		if err != nil {
			os.RemoveAll(work)
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(1)
		}
	}
	check(err)
	out, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	check(err)
	root := strings.TrimSpace(string(out))
	for _, rev := range []*string{baseRev, headRev} { // a ledger names commits, not HEAD
		if out, err := exec.Command("git", "rev-parse", "--short", *rev).Output(); *rev != "" && err == nil {
			*rev = strings.TrimSpace(string(out))
		}
	}
	b, err := build("base", *baseRev, root, work, *pkg)
	check(err)
	h, err := build("head", *headRev, root, work, *pkg)
	check(err)
	args := []string{"-test.run", "^$", "-test.bench", *bench, "-test.benchmem", "-test.count", "1"}
	for name, v := range map[string]string{"-test.cpu": *cpu, "-test.benchtime": *benchtime} {
		if v != "" {
			args = append(args, name, v)
		}
	}
	bs, hs := make([]sample, *pairs), make([]sample, *pairs)
	for i := range *pairs {
		first, second, fs, ss := b, h, &bs[i], &hs[i]
		if !baseFirst(i) {
			first, second, fs, ss = h, b, &hs[i], &bs[i]
		}
		*fs, err = first.run(args)
		check(err)
		*ss, err = second.run(args)
		check(err)
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", i+1, *pairs)
	}
	os.RemoveAll(work)
	rows, gone := compare(bs, hs)
	report(os.Stdout, rows, gone)
	if *ledger != "" {
		if *headRev == "" {
			*headRev = "working tree"
		}
		check(appendLedger(*ledger, comparison{
			Base: *baseRev, Head: *headRev, Pkg: *pkg, Bench: *bench, CPU: *cpu, Benchtime: *benchtime, Pairs: *pairs,
			When: time.Now().UTC().Format(time.RFC3339), Box: thisBox(), Rows: rows, Missing: gone,
		}))
	}
}
