// Command experiments regenerates every evaluation artifact of the
// reproduction (experiments E1–E20 of DESIGN.md) and prints the result
// tables, optionally as markdown for EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-exp e1,e2,...] [-trials N] [-patients N] [-markdown] [-quick]
//
// With no -exp flag all experiments run in order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment ids (e1..e20); empty = all")
		outPath  = flag.String("o", "", "also write the output to this file")
		trials   = flag.Int("trials", 200, "game trials per cell (E1, E4)")
		patients = flag.Int("patients", 400, "patients per hospital table (E2, E3)")
		infTr    = flag.Int("inference-trials", 50, "trials for the inference attacks (E2, E3)")
		slots    = flag.Int("slots", 200000, "word slots probed per checksum width (E5)")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavoured markdown")
		jsonOut  = flag.Bool("json", false, "emit JSON (one object per experiment)")
		quick    = flag.Bool("quick", false, "small parameters for a fast smoke run")
		seed     = flag.Int64("seed", 1, "deterministic experiment seed")
	)
	flag.Parse()

	if *quick {
		*trials = 40
		*patients = 200
		*infTr = 10
		*slots = 20000
	}
	sizes := []int{100, 1000, 10000}
	e8sizes := []int{100, 1000, 10000, 100000}
	e13Tuples := 10000
	e14Clients := 8
	e15Writers, e15Ops := 8, 60
	e18Tuples := 2000
	e19Tuples := 400
	e20Tuples := 2000
	if *quick {
		sizes = []int{100, 1000}
		e8sizes = []int{100, 1000}
		e13Tuples = 8192
		e15Ops = 15
		e18Tuples = 1000
		e19Tuples = 200
		e20Tuples = 1000
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[strings.ToLower(id)] }

	type runner struct {
		id  string
		run func() (*bench.Table, error)
	}
	runners := []runner{
		{"e1", func() (*bench.Table, error) { return bench.RunE1(*trials, *seed) }},
		{"e2", func() (*bench.Table, error) { return bench.RunE2(*patients, *infTr, *seed) }},
		{"e3", func() (*bench.Table, error) { return bench.RunE3(*patients, *infTr, *seed) }},
		{"e4", func() (*bench.Table, error) { return bench.RunE4(*trials, *seed) }},
		{"e5", func() (*bench.Table, error) { return bench.RunE5(*slots, *seed) }},
		{"e6", func() (*bench.Table, error) { return bench.RunE6(sizes, 20, *seed) }},
		{"e7", func() (*bench.Table, error) { return bench.RunE7(10, 10, *seed) }},
		{"e8", func() (*bench.Table, error) { return bench.RunE8(e8sizes, *seed) }},
		{"e9", func() (*bench.Table, error) { return bench.RunE9(*patients, *infTr, *seed) }},
		{"e10", func() (*bench.Table, error) { return bench.RunE10(*patients, *trials, *seed) }},
		{"e11", func() (*bench.Table, error) { return bench.RunE11(*patients, *infTr, *seed) }},
		{"e12", func() (*bench.Table, error) { return bench.RunE12(*patients, 20, *seed) }},
		{"e13", func() (*bench.Table, error) { return bench.RunE13(e13Tuples, *seed) }},
		{"e14", func() (*bench.Table, error) { return bench.RunE14(e13Tuples, e14Clients, *seed) }},
		{"e15", func() (*bench.Table, error) { return bench.RunE15(e15Writers, e15Ops, *seed) }},
		{"e16", func() (*bench.Table, error) { return bench.RunE16(e13Tuples, *seed) }},
		// E17 ignores -quick sizing: its ≥5x gate is specified at ≥10k
		// tuples and RunE17 clamps up to that floor anyway.
		{"e17", func() (*bench.Table, error) { return bench.RunE17(10000, *seed) }},
		{"e18", func() (*bench.Table, error) { return bench.RunE18(e18Tuples, *seed) }},
		{"e19", func() (*bench.Table, error) { return bench.RunE19(e19Tuples, *seed) }},
		{"e20", func() (*bench.Table, error) { return bench.RunE20(e20Tuples, *seed) }},
	}
	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	for _, r := range runners {
		if !selected(r.id) {
			continue
		}
		table, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		switch {
		case *jsonOut:
			if err := table.JSON(out); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.id, err)
				os.Exit(1)
			}
		case *markdown:
			table.Markdown(out)
		default:
			table.Fprint(out)
		}
	}
}
