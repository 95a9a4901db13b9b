package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a run to milliseconds: N = 500, a fixed number of calls.
func tiny(t *testing.T, seed int64) config {
	return config{seed: seed, tuples: 500, setups: 2, outDir: t.TempDir(), fixedCalls: 200}
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program's own
// metric tables equal, and inside the driver's limits.
func TestSpecMatchesProgram(t *testing.T) {
	sp := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(sp.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", n, len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", n, len(endToEnd))
	}
	for i, m := range sp.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !name.MatchString(m.Name) {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if m := sp.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s [s], lower is better")
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", n, len(perLayer))
	}
	for i, m := range sp.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !name.MatchString(m.Name) {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 || len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", sp.RunSeconds, sp.Paths)
	}
}

// TestSmoke runs all four workloads end to end and traced at N = 500:
// every listed metric is emitted with its unit, every answer is right,
// the durability check passes, the cache regime is the one the workload
// claims, and Match still allocates nothing.
func TestSmoke(t *testing.T) {
	sp := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tiny(t, 7)
			var log bytes.Buffer
			res, err := runEndToEnd(w, cfg, &report{w: &log})
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != cfg.fixedCalls {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(sp.EndToEnd) {
				t.Errorf("%d end-to-end metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(sp.EndToEnd))
			}
			for _, m := range sp.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("%s: emitted %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			log.Reset()
			res, err = runTraced(w, cfg, &report{w: &log})
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d\n%s", res.Correct, res.Failed, log.String())
			}
			if len(res.Metrics) != len(sp.PerLayer) {
				t.Errorf("%d per-layer metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(sp.PerLayer))
			}
			for _, m := range sp.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: emitted %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			value := func(name string) float64 { return res.Metrics[name].Value }
			if a := value("swp.match_allocs"); a != 0 {
				t.Errorf("swp.match_allocs = %v, want 0", a)
			}
			for _, positive := range []string{"crypto.prf_sum_ns", "swp.match_ns", "core.evaluate_ms", "storage.query_hit_us", "storage.append_us", "storage.log_sync_us", "wire.req_bytes_per_op", "server.rtt_floor_us", "client.self_us", "client.insert_self_us"} {
				if value(positive) <= 0 {
					t.Errorf("%s = %v, want > 0", positive, value(positive))
				}
			}
			switch w.name {
			case "cold_scan":
				if value("cache.miss_frac") < 0.99 {
					t.Errorf("cold_scan: cache.miss_frac = %v, want >= 0.99", value("cache.miss_frac"))
				}
			case "hot_read":
				if value("cache.hit_frac") < 0.99 {
					t.Errorf("hot_read: cache.hit_frac = %v, want >= 0.99", value("cache.hit_frac"))
				}
			case "append_mix":
				if value("cache.delta_frac") < 0.9 || value("authindex.verify_us_per_tuple") <= 0 {
					t.Errorf("append_mix: cache.delta_frac = %v, authindex.verify_us_per_tuple = %v", value("cache.delta_frac"), value("authindex.verify_us_per_tuple"))
				}
			case "cluster_mix":
				if value("shard.subrequests_per_op") < 1 || value("shard.scatter_self_us") <= 0 || value("query.conj_us") <= 0 {
					t.Errorf("cluster_mix: shard.subrequests_per_op = %v, shard.scatter_self_us = %v, query.conj_us = %v",
						value("shard.subrequests_per_op"), value("shard.scatter_self_us"), value("query.conj_us"))
				}
			}

			// The span file: every parent exists and contains its child.
			data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			roots, children := 0, 0
			for _, s := range tf.Spans {
				if s.End < s.Start {
					t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
				if s.Parent == 0 {
					roots++
					continue
				}
				children++
				p := tf.Spans[s.Parent-1]
				if p.ID != s.Parent || s.Start < p.Start || s.End > p.End || s.Op != p.Op {
					t.Fatalf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
				}
			}
			if roots < cfg.fixedCalls/2 || children < cfg.fixedCalls/2 {
				t.Errorf("%d root spans and %d child spans for %d traced calls", roots, children, cfg.fixedCalls/2)
			}
		})
	}
}

// fingerprint digests what a set-up generated: the tables and every
// planned call.
func fingerprint(t *testing.T, w *workloadSpec, cfg config) string {
	t.Helper()
	e, err := setUp(w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.tearDown()
	var b strings.Builder
	for _, c := range e.clients {
		fmt.Fprintf(&b, "%s %+v;", c.table, digestOf(c.model.t))
		for _, o := range c.ops {
			fmt.Fprintf(&b, "%d %v %v %v;", o.kind, o.eqs, o.tuples, o.side)
		}
	}
	return b.String()
}

// TestDeterminism: the seed drives the table, the keys, the call order
// and the master key, so two runs with one seed send the same requests
// and leave the same log, and another seed sends others. What comes
// back is not compared byte for byte: core draws document ids from
// crypto/rand, so which non-matching tuples pass the 2-byte SWP
// checksum (and so the response size) differs from run to run.
func TestDeterminism(t *testing.T) {
	w := findWorkload("append_mix")
	if a, b := fingerprint(t, w, tiny(t, 11)), fingerprint(t, w, tiny(t, 11)); a != b {
		t.Error("one seed generated two different inputs")
	}
	if a, b := fingerprint(t, w, tiny(t, 11)), fingerprint(t, w, tiny(t, 12)); a == b {
		t.Error("two seeds generated the same inputs")
	}
	if masterKey(11) != masterKey(11) || masterKey(11) == masterKey(12) {
		t.Error("the master key does not follow the seed")
	}
	exact := []string{"wire.req_bytes_per_op", "wire.roundtrips_per_op", "storage.log_bytes_per_tuple", "cache.hit_frac", "cache.delta_frac", "cache.miss_frac", "cache.evictions"}
	var runs [2]result
	var logged [2]float64
	for i := range runs {
		var err error
		if runs[i], err = runTraced(w, tiny(t, 11), &report{w: io.Discard}); err != nil {
			t.Fatal(err)
		}
		e2e, err := runEndToEnd(w, tiny(t, 11), &report{w: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		logged[i] = e2e.Metrics["log_bytes_per_user_byte"].Value
	}
	if runs[0].Attempted != runs[1].Attempted {
		t.Errorf("attempted %d, then %d", runs[0].Attempted, runs[1].Attempted)
	}
	if logged[0] != logged[1] {
		t.Errorf("log_bytes_per_user_byte %v, then %v", logged[0], logged[1])
	}
	for _, name := range exact {
		if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
			t.Errorf("%s: %v, then %v with the same seed", name, a, b)
		}
	}
}

// TestStatsOf: timings are taken per slice; slices the hypervisor stole
// CPU time from are set aside; read_p50_ms weighs each class of read by
// its share of the calls instead of sitting on the boundary between two.
func TestStatsOf(t *testing.T) {
	const sec = int64(1e9)
	c := &benchClient{}
	win := window{period: time.Second, ticks: []tick{{}}}
	for s := int64(0); s < 8; s++ {
		slow, steal := int64(1), 0.0
		if s == 2 || s == 5 {
			slow, steal = 10, 0.5 // a quarter of two CPU-seconds withheld
		}
		at := s * sec
		add := func(kind opKind, column string, ms int64) {
			at += sec / 20
			c.samples = append(c.samples, sample{kind: kind, column: column, start: at - slow*ms*1e6, end: at, ok: true})
		}
		for i := 0; i < 2; i++ {
			add(opSelect, "salary", 1)
			add(opSelect, "salary", 1)
			add(opSelect, "salary", 1)
			add(opSelect, "name", 20)
			add(opInsert, "", 2)
		}
		last := win.ticks[len(win.ticks)-1]
		win.ticks = append(win.ticks, tick{t: (s + 1) * sec, cpu: last.cpu + 0.02*float64(slow), steal: last.steal + steal})
	}
	e := &env{clients: []*benchClient{c}}
	ps := e.statsOf(0, len(c.samples), win)
	if ps.slices != 8 || ps.stolen != 2 || ps.attempted != 80 || ps.reads != 64 || ps.writes != 16 {
		t.Errorf("slices %d, stolen %d, attempted %d, reads %d, writes %d", ps.slices, ps.stolen, ps.attempted, ps.reads, ps.writes)
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("ops_per_s", ps.opsPerS, 10)
	near("cpu_ms_per_op", ps.cpuMsPerOp, 2)
	near("read_p50_ms", ps.readP50, 0.75*1+0.25*20)
	near("write_p50_ms", ps.writeP50, 2)
	near("read_p99_ms", ps.readP99, 200) // the tails are over the whole phase, stolen slices too
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, …, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
	if q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2}); q1 != 1 || q2 != 3 || q3 != 5 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestCompare feeds -compare two sets of records and reads its verdicts.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64, jitter float64) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i := 0; i < 10; i++ {
			rec := record{Workload: "hot_read", Seed: int64(i), result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
			for _, m := range endToEnd {
				s, ok := scale[m.name]
				if !ok {
					s = 1
				}
				noise := 1 + 0.001*float64(i%3)
				if m.name == "cpu_ms_per_op" {
					noise = 1 + jitter*float64(i)
				}
				rec.Metrics[m.name] = metric{Value: 100 * s * noise, Unit: m.unit}
			}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(f, "%s\n", line)
		}
		return path
	}
	a := write("a.jsonl", nil, 0.1)
	b := write("b.jsonl", map[string]float64{"read_p50_ms": 1.5, "ops_per_s": 1.5}, 0.1)
	var out bytes.Buffer
	err := compareFiles(filepath.Join("..", "BENCHMARK.json"), a, b, &report{w: &out})
	if err == nil || !strings.Contains(err.Error(), "1 (metric, workload) pairs regressed") {
		t.Errorf("compare returned %v, want exactly one regression\n%s", err, out.String())
	}
	for metric, verdict := range map[string]string{
		"read_p50_ms":   "regressed",  // 50% slower
		"ops_per_s":     "ok",         // 50% more throughput is not a regression
		"cpu_ms_per_op": "unresolved", // spread wider than its bound
		"write_p50_ms":  "ok",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 1 && f[1] == metric {
				found = strings.Contains(line, verdict)
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q\n%s", metric, verdict, out.String())
		}
	}
}
