// Command experiments regenerates the paper's evaluation, experiments
// E1–E12 of DESIGN.md, and prints the result tables, as text, markdown
// or JSON.
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
	"slices"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment ids (e1..e12); empty = all")
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

	sizes := []int{100, 1000, 10000}
	e8sizes := []int{100, 1000, 10000, 100000}
	if *quick {
		*trials = 40
		*patients = 200
		*infTr = 10
		*slots = 20000
		sizes = []int{100, 1000}
		e8sizes = []int{100, 1000}
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			if id = strings.ToLower(strings.TrimSpace(id)); id != "" {
				want[id] = true
			}
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
	}
	for id := range want {
		if !slices.ContainsFunc(runners, func(r runner) bool { return r.id == id }) {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
			os.Exit(2)
		}
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
