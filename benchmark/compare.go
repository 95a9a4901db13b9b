package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// spec is BENCHMARK.json: the one place the bounds live.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles are Python's statistics.quantiles(values, n=4) — the
// "exclusive" method the driver's acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := slices.Clone(values)
	slices.Sort(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		if delta < 0 {
			delta = 0
		}
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// readRecords groups a file of run records (one JSON object per line,
// as out/runs.jsonl holds them) by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Workload == "" {
			return nil, fmt.Errorf("%s:%d: not a run record (no workload)", path, line)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per (metric, workload) present in both files,
// both medians and quartiles, how much worse B's median is than A's as
// a share of A's, the metric's bound, and a verdict: ok, regressed
// (worse by more than the bound), or unresolved (either side's
// interquartile spread is wider than the bound, so the comparison
// cannot tell). Per-layer metrics have no bound and get no verdict.
func compareFiles(specPath, pathA, pathB string, out *report) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return fmt.Errorf("-compare reads the bounds from %s: %w", specPath, err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	type rule struct {
		better string
		bound  float64 // NaN: none
	}
	rules := make(map[string]rule)
	var order []string
	for _, m := range sp.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range sp.PerLayer {
		rules[m.Name] = rule{m.Better, math.NaN()}
		order = append(order, m.Name)
	}
	workloads := make([]string, 0, len(a))
	for w := range a {
		if b[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	out.printf("%-12s %-34s %5s %12s %25s %12s %25s %9s %6s  %s\n",
		"workload", "metric", "runs", "A median", "A quartiles", "B median", "B quartiles", "B worse", "bound", "verdict")
	regressed := 0
	for _, w := range workloads {
		for _, name := range order {
			va, vb := a[w][name], b[w][name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			r := rules[name]
			worse := ratio(b2-a2, math.Abs(a2))
			if r.better == "higher" {
				worse = -worse
			}
			verdict, bound := "-", "-"
			if !math.IsNaN(r.bound) {
				bound = fmt.Sprintf("%.3f", r.bound)
				spread := max(ratio(a3-a1, math.Abs(a2)), ratio(b3-b1, math.Abs(b2)))
				switch {
				case spread > r.bound:
					verdict = fmt.Sprintf("unresolved (spread %.3f)", spread)
				case worse > r.bound:
					verdict = "regressed"
					regressed++
				default:
					verdict = "ok"
				}
			}
			out.printf("%-12s %-34s %2d/%-2d %12.4f %12.4f…%-12.4f %12.4f %12.4f…%-12.4f %+9.3f %6s  %s\n",
				w, name, len(va), len(vb), a2, a1, a3, b2, b1, b3, worse, bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed", regressed)
	}
	return nil
}
