// Command benchmark is the repository's benchmark: four traffic mixes
// driven through the public client.DB API against real storage.Store +
// server.Server instances on loopback TCP, every answer checked against
// a plaintext model. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// report is where the human-readable lines go; tests discard them.
type report struct{ w io.Writer }

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.w, format, args...) }

// record is one line of out/runs.jsonl, the input of -compare: a result
// with the invocation that produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "seed for the table, the keys, the call order and the master key")
		workload = flag.String("workload", "", "run one workload (cold_scan, hot_read, append_mix, cluster_mix); default all four")
		seconds  = flag.Int("seconds", 20, "length of the measured phase: it runs callsPerSecond × seconds calls")
		trace    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes out/trace-<workload>.json")
		compare  = flag.Bool("compare", false, "compare two files of run records: -compare A.json B.json")
	)
	flag.Parse()
	if err := run(*seed, *workload, *seconds, *trace, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(seed int64, only string, seconds, trace int, compare bool, args []string) error {
	out := &report{w: os.Stdout}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files of run records")
		}
		return compareFiles("BENCHMARK.json", args[0], args[1], out)
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	selected := workloads
	if only != "" {
		w := findWorkload(only)
		if w == nil {
			return fmt.Errorf("unknown workload %q", only)
		}
		selected = []*workloadSpec{w}
	}
	cfg := defaultConfig(seed, float64(seconds))
	failed := false
	for _, w := range selected {
		var (
			res result
			err error
		)
		if trace != 0 {
			res, err = runTraced(w, cfg, out)
		} else {
			res, err = runEndToEnd(w, cfg, out)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := appendRecord(cfg.outDir, record{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, result: res}); err != nil {
			return err
		}
		// The result object is the last line of a workload's output.
		out.printf("%s\n", line)
		failed = failed || !res.Correct
	}
	if failed {
		return fmt.Errorf("some answers were wrong; see FAILED lines above")
	}
	return nil
}

// appendRecord adds the run to out/runs.jsonl, so that a set of runs can
// be handed to -compare.
func appendRecord(dir string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
