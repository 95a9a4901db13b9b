package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestParse reads the benchmark lines of a test binary's output — the
// standard units, a custom one and a name with a GOMAXPROCS suffix — and
// nothing else.
func TestParse(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro/internal/swp
BenchmarkMatchRun/emp         	    3800	    336502 ns/op	        33.65 ns/tuple	       0 B/op	       0 allocs/op
BenchmarkQueryUncached-2      	   16437	     68213 ns/op	   25797 B/op	       5 allocs/op
BenchmarkBroken               	 notanumber	 12 ns/op
Benchmark listing line without fields
PASS
ok  	repro/internal/swp	2.1s
`
	got := parse(out)
	want := sample{
		{"BenchmarkMatchRun/emp", "ns/op"}:        336502,
		{"BenchmarkMatchRun/emp", "ns/tuple"}:     33.65,
		{"BenchmarkMatchRun/emp", "B/op"}:         0,
		{"BenchmarkMatchRun/emp", "allocs/op"}:    0,
		{"BenchmarkQueryUncached-2", "ns/op"}:     68213,
		{"BenchmarkQueryUncached-2", "B/op"}:      25797,
		{"BenchmarkQueryUncached-2", "allocs/op"}: 5,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d measurements, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%v = %v, want %v", k, got[k], v)
		}
	}
}

// TestABBAOrder: pairs alternate which side runs first, so that the
// sequence of runs is base, head, head, base, base, head, …
func TestABBAOrder(t *testing.T) {
	var seq []string
	for i := range 4 {
		if baseFirst(i) {
			seq = append(seq, "A", "B")
		} else {
			seq = append(seq, "B", "A")
		}
	}
	if got := strings.Join(seq, ""); got != "ABBAABBA" {
		t.Fatalf("run order %s, want ABBAABBA", got)
	}
}

// TestSignTest pins the two-sided p at the counts a 10-pair comparison
// meets: 10/10 and 9/10 are significant at 0.05, 8/10 is not, and a
// comparison of only ties says nothing.
func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		won, lost int
		p         float64
	}{
		{10, 0, 2.0 / 1024},
		{0, 10, 2.0 / 1024},
		{9, 1, 22.0 / 1024},
		{8, 2, 112.0 / 1024},
		{5, 5, 1},
		{0, 0, 1},
	} {
		if got := signTest(c.won, c.lost); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.won, c.lost, got, c.p)
		}
	}
}

// pairs builds n pairs of samples of one benchmark and unit, base and
// head values drawn from the two functions.
func pairs(n int, unit string, base, head func(i int) float64) ([]sample, []sample) {
	b, h := make([]sample, n), make([]sample, n)
	for i := range n {
		b[i] = sample{{"BenchmarkX", unit}: base(i)}
		h[i] = sample{{"BenchmarkX", unit}: head(i)}
	}
	return b, h
}

// TestVerdicts: a head that wins every pair is "faster" on a time and
// "better" on a count, the ratio and quartiles come from the medians, a
// rate is better higher, 8 of 10 pairs is no verdict, and identical runs
// give a ratio of 1 and none.
func TestVerdicts(t *testing.T) {
	for _, c := range []struct {
		name       string
		unit       string
		base, head func(i int) float64
		ratio      float64
		verdict    string
	}{
		{"faster", "ns/op", func(i int) float64 { return 100 + float64(i) }, func(i int) float64 { return 50 + float64(i) }, 54.5 / 104.5, "faster"},
		{"slower", "ns/tuple", func(i int) float64 { return 10 }, func(i int) float64 { return 20 }, 2, "slower"},
		{"fewer allocs", "allocs/op", func(i int) float64 { return 5 }, func(i int) float64 { return 2 }, 0.4, "better"},
		{"a rate", "MB/s", func(i int) float64 { return 100 }, func(i int) float64 { return 200 }, 2, "better"},
		{"8 of 10", "ns/op", func(i int) float64 { return 100 }, func(i int) float64 { return 90 + 20*float64(i/8) }, 0.9, ""},
		{"identical", "ns/op", func(i int) float64 { return 7 }, func(i int) float64 { return 7 }, 1, ""},
	} {
		rows, gone := compare(pairs(10, c.unit, c.base, c.head))
		if len(rows) != 1 || len(gone) != 0 {
			t.Fatalf("%s: %d rows, %d missing", c.name, len(rows), len(gone))
		}
		r := rows[0]
		if math.Abs(r.Ratio-c.ratio) > 1e-9 || r.Verdict != c.verdict || r.Pairs != 10 {
			t.Errorf("%s: ratio %v verdict %q over %d pairs, want %v %q over 10", c.name, r.Ratio, r.Verdict, r.Pairs, c.ratio, c.verdict)
		}
	}
	b := quartiles([]float64{4, 1, 3, 2, 5})
	if b != (quart{Median: 3, Q1: 2, Q3: 4}) {
		t.Errorf("quartiles of 1..5 = %+v", b)
	}
}

// TestMissingRows: a benchmark that ran on one side only is reported as
// missing on the other, with what it measured where it ran, and gets no
// row; one on both sides does.
func TestMissingRows(t *testing.T) {
	base := []sample{{{"BenchmarkOld", "ns/op"}: 1, {"BenchmarkBoth", "ns/op"}: 1}}
	head := []sample{{{"BenchmarkNew", "ns/op"}: 1, {"BenchmarkNew", "ns/tuple"}: 1, {"BenchmarkBoth", "ns/op"}: 1}}
	rows, gone := compare(base, head)
	if len(rows) != 1 || rows[0].Bench != "BenchmarkBoth" {
		t.Fatalf("rows %+v, want BenchmarkBoth alone", rows)
	}
	one := quart{Median: 1, Q1: 1, Q3: 1}
	want := []missing{{"BenchmarkOld", "ns/op", "head", one}, {"BenchmarkNew", "ns/op", "base", one}, {"BenchmarkNew", "ns/tuple", "base", one}}
	slices.SortFunc(gone, func(a, b missing) int { return strings.Compare(a.Bench+a.Unit, b.Bench+b.Unit) })
	slices.SortFunc(want, func(a, b missing) int { return strings.Compare(a.Bench+a.Unit, b.Bench+b.Unit) })
	if !slices.Equal(gone, want) {
		t.Fatalf("missing %+v, want %+v", gone, want)
	}
}
