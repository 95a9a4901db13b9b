package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/storage"
)

// config is everything a run is made from. The command line sets seed
// and seconds; tests shrink the rest.
type config struct {
	seed    int64
	seconds float64
	tuples  int    // N per table
	setups  int    // set-up repetitions; setup_s is their median
	outDir  string // WAL files and trace files go here
	// fixedCalls, when positive, replaces callsPerSecond × seconds
	// (tests, where a phase must last milliseconds).
	fixedCalls int
}

func defaultConfig(seed int64, seconds float64) config {
	return config{seed: seed, seconds: seconds, tuples: 20000, setups: 3, outDir: "benchmark/out"}
}

// calls is the size of the measured phase in client.DB calls.
func (cfg config) calls(w *workloadSpec) int {
	if cfg.fixedCalls > 0 {
		return cfg.fixedCalls
	}
	return max(numClients, int(math.Round(w.callsPerSecond*cfg.seconds)))
}

// slice is the length of one slice of a phase planned to last seconds:
// a twentieth of it, or 20 ms where there is no plan (tests).
func slice(seconds float64) time.Duration {
	if seconds <= 0 {
		return 20 * time.Millisecond
	}
	return time.Duration(seconds / slicesPerPhase * float64(time.Second))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly the keys the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The end-to-end metrics, in the order they print. BENCHMARK.json lists
// the same names with their bounds; the smoke test keeps the two equal.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"wire_bytes_per_op", "B"},
	{"allocs_per_op", "count"},
	{"cpu_ms_per_op", "ms"},
	{"heap_live_mb", "MB"},
	{"log_bytes_per_user_byte", "ratio"},
}

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// Timings on the calibration box — two vCPUs of a shared host — are
// disturbed from outside in two ways. The hypervisor withholds the vCPUs
// outright, for seconds or for minutes (up to 70% of them were seen
// stolen): the guest can see that, as steal time in /proc/stat. And the
// box runs 10-25% slower for 10 to 30 seconds at a time with no steal
// reported. Both only ever slow the program. So a measured phase is cut
// into slices of a twentieth of its planned length, every timing is
// taken per slice, slices during which more than maxStolen of the CPU
// time was stolen are set aside, and the figure reported is the calm
// quartile of the rest: the value a quarter of the way in from the good
// end. It still moves when a whole run falls inside a slow spell, which
// is what the bounds in BENCHMARK.json allow for.
const (
	slicesPerPhase = 20
	maxStolen      = 0.02
)

// calm returns the value a quarter of the way into xs from its low end
// (lowerIsBetter) or its high end.
func calm(xs []float64, lowerIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if !lowerIsBetter {
		slices.Reverse(s)
	}
	return s[(len(s)-1)/4]
}

// stolenSeconds is the CPU time the hypervisor has withheld from this
// machine's processors since boot: the steal column of /proc/stat's
// first line. Where that cannot be read it is 0, and no slice is ever
// set aside.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// readClass tells apart the kinds of read a mix sends: the client.DB
// method and the column selected on (a conjunction's first). On a mixed
// workload the median of all reads together sits on the boundary between
// two classes, where it measures how many calls fell on either side, not
// how long any of them took, and does not move when the slower classes
// get slower still. So read_p50_ms is the call-weighted mean of each
// class's median; with one class it is that class's median.
type readClass struct {
	kind   opKind
	column string
}

// figures are the timings of one slice of a phase (or of the phase).
type figures struct {
	opsPerS, cpuMsPerOp float64
	readP50, writeP50   float64 // ms
	reads, writes       bool    // the slice has samples enough for them
}

// figuresOf condenses the samples that completed between two ticks.
// weights is each read class's share of the phase's reads; a slice that
// misses one of the classes has no read figure.
func figuresOf(samples []sample, from, to tick, weights map[readClass]float64) figures {
	var f figures
	if len(samples) == 0 || to.t <= from.t {
		return f
	}
	f.opsPerS = float64(len(samples)) / (float64(to.t-from.t) / 1e9)
	f.cpuMsPerOp = (to.cpu - from.cpu) * 1e3 / float64(len(samples))
	byClass := make(map[readClass][]float64, len(weights))
	var writes []float64
	for _, s := range samples {
		ms := float64(s.end-s.start) / 1e6
		if s.kind.isRead() {
			c := readClass{s.kind, s.column}
			byClass[c] = append(byClass[c], ms)
		} else {
			writes = append(writes, ms)
		}
	}
	f.reads = len(byClass) == len(weights) && len(weights) > 0
	for c, ms := range byClass {
		f.readP50 += weights[c] * median(ms)
	}
	f.writes = len(writes) > 0
	f.writeP50 = median(writes)
	return f
}

// phaseStats condenses the samples of one measured phase.
type phaseStats struct {
	attempted, failed  int
	reads, writes      int
	slices, stolen     int // slices measured, and how many of them were set aside
	opsPerS            float64
	cpuMsPerOp         float64
	readP50, readP99   float64 // ms
	writeP50, writeP99 float64 // ms
}

// statsOf summarises the samples every client took in [from, to) of its
// own call sequence, which ran in the window win.
func (e *env) statsOf(from, to int, win window) phaseStats {
	var all []sample
	for _, c := range e.clients {
		all = append(all, c.samples[min(from, len(c.samples)):min(to, len(c.samples))]...)
	}
	slices.SortFunc(all, func(a, b sample) int { return cmp.Compare(a.end, b.end) })
	var ps phaseStats
	var reads, writes []float64
	weights := make(map[readClass]float64)
	for _, s := range all {
		ps.attempted++
		if !s.ok {
			ps.failed++
		}
		ms := float64(s.end-s.start) / 1e6
		if s.kind.isRead() {
			reads = append(reads, ms)
			weights[readClass{s.kind, s.column}]++
		} else {
			writes = append(writes, ms)
		}
	}
	ps.reads, ps.writes = len(reads), len(writes)
	for c := range weights {
		weights[c] /= float64(len(reads))
	}
	// The tails are per-layer metrics, taken over the whole phase.
	ps.readP99, ps.writeP99 = stats.Quantile(reads, 0.99), stats.Quantile(writes, 0.99)

	var calmOnes, stolenOnes []figures
	next := 0
	for i := 0; i+1 < len(win.ticks); i++ {
		a, b := win.ticks[i], win.ticks[i+1]
		first := next
		for next < len(all) && all[next].end <= b.t {
			next++
		}
		if i+2 == len(win.ticks) && float64(b.t-a.t) < float64(win.period)/2 {
			break // the stub after the last full slice
		}
		f := figuresOf(all[first:next], a, b, weights)
		if (b.steal-a.steal)/(float64(b.t-a.t)/1e9*float64(runtime.NumCPU())) > maxStolen {
			stolenOnes = append(stolenOnes, f)
		} else {
			calmOnes = append(calmOnes, f)
		}
	}
	ps.slices, ps.stolen = len(calmOnes)+len(stolenOnes), len(stolenOnes)
	// With under a quarter of the slices undisturbed there is no calm
	// quartile to be had from them alone: keep them all.
	if len(calmOnes) < (ps.slices+3)/4 {
		calmOnes = append(calmOnes, stolenOnes...)
	}
	var rate, cpu, readP50, writeP50 []float64
	for _, f := range calmOnes {
		if f.opsPerS > 0 {
			rate, cpu = append(rate, f.opsPerS), append(cpu, f.cpuMsPerOp)
		}
		if f.reads {
			readP50 = append(readP50, f.readP50)
		}
		if f.writes {
			writeP50 = append(writeP50, f.writeP50)
		}
	}
	// A phase too short for slices (the tests') is one slice.
	whole := figuresOf(all, win.ticks[0], win.ticks[len(win.ticks)-1], weights)
	pick := func(xs []float64, lowerIsBetter bool, fallback float64) float64 {
		if len(xs) == 0 {
			return fallback
		}
		return calm(xs, lowerIsBetter)
	}
	ps.opsPerS = pick(rate, false, whole.opsPerS)
	ps.cpuMsPerOp = pick(cpu, true, whole.cpuMsPerOp)
	ps.readP50 = pick(readP50, true, whole.readP50)
	ps.writeP50 = pick(writeP50, true, whole.writeP50)
	return ps
}

// cpuSeconds is the user+system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF) cannot fail, yet: %v", err))
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runEndToEnd sets the workload up cfg.setups times (setup_s is the
// median), runs the measured phase untraced on the last set-up, checks
// correctness and durability, and returns the end-to-end metrics.
func runEndToEnd(w *workloadSpec, cfg config, out *report) (result, error) {
	var e *env
	setups := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.tearDown()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, cfg, nil); err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.tearDown()

	// Start the phase from a collected heap, so the garbage of the
	// earlier set-ups is not this phase's GC work.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sent0, recv0, _ := e.wireTotals()

	win := e.run(len(e.clients[0].ops))

	runtime.ReadMemStats(&m1)
	sent1, recv1, _ := e.wireTotals()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	logged, err := logBytes(e.nodes)
	if err != nil {
		return result{}, err
	}

	ps := e.statsOf(0, math.MaxInt, win)
	calls := float64(ps.attempted)
	userBytes := float64(e.storedTuples() * userBytesPerTuple(e.clients[0].model.t.Schema()))
	values := map[string]float64{
		"setup_s":                 median(setups),
		"ops_per_s":               ps.opsPerS,
		"read_p50_ms":             ps.readP50,
		"write_p50_ms":            ps.writeP50,
		"wire_bytes_per_op":       float64(sent1-sent0+recv1-recv0) / calls,
		"allocs_per_op":           float64(m1.Mallocs-m0.Mallocs) / calls,
		"cpu_ms_per_op":           ps.cpuMsPerOp,
		"heap_live_mb":            float64(live.HeapAlloc) / (1 << 20),
		"log_bytes_per_user_byte": float64(logged) / userBytes,
	}
	res := result{Attempted: ps.attempted, Failed: ps.failed, Metrics: make(map[string]metric)}
	out.printf("%s: %d calls (%d reads, %d writes) in %.2f s by %d closed-loop clients, %d slices of which %d set aside for stolen CPU time; N = %d tuples per table; set-up ×%d; SyncAlways WAL, default cache and sharer, GOMAXPROCS %d\n",
		w.name, ps.attempted, ps.reads, ps.writes, float64(win.ticks[len(win.ticks)-1].t-win.ticks[0].t)/1e9, numClients, ps.slices, ps.stolen, cfg.tuples, cfg.setups, runtime.GOMAXPROCS(0))
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		out.printf("  %-26s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
	out.printf("  %-26s %14.6f ratio  (%d failed of %d attempted)\n", "failed_frac", float64(ps.failed)/calls, ps.failed, ps.attempted)

	res.Correct = e.verdict(&res, out)
	return res, nil
}

// verdict runs the off-the-clock checks and folds them into the result.
func (e *env) verdict(res *result, out *report) bool {
	ok := res.Failed == 0
	for _, c := range e.clients {
		if c.failure != nil {
			out.printf("  FAILED call: %v\n", c.failure)
		}
	}
	if err := e.audit(); err != nil {
		out.printf("  FAILED audit: %v\n", err)
		res.Failed++
		ok = false
	}
	if err := e.crashCheck(); err != nil {
		out.printf("  FAILED durability check: %v\n", err)
		res.Failed++
		ok = false
	} else {
		out.printf("  durability check passed: every acknowledged write is in the fsynced prefix of its WAL\n")
	}
	return ok
}

// crashCheck is the durability test: for each node it keeps only the WAL
// bytes a completed fsync covered (a kill leaves the page cache intact,
// so the check itself discards what was not flushed), replays that
// prefix into a fresh store, and requires every table to hold exactly
// the tuples the clients were acknowledged — and, where a client pins a
// root, exactly that root. Call it with the clients idle.
func (e *env) crashCheck() error {
	type want struct {
		tuples int
		root   []byte
	}
	wants := make([]map[string]want, len(e.nodes))
	for i := range wants {
		wants[i] = make(map[string]want)
	}
	for _, c := range e.clients {
		switch {
		case c.coord != nil:
			roots, tuples := c.db.ShardRoots()
			total := 0
			for i := range roots {
				wants[i][c.table] = want{tuples: tuples[i], root: roots[i]}
				total += tuples[i]
			}
			if total != c.model.t.Len() {
				return fmt.Errorf("%s: pinned vector covers %d tuples, model holds %d", c.table, total, c.model.t.Len())
			}
		default:
			root, _ := c.db.Root()
			if !e.w.ownTable {
				root = nil
			}
			wants[0][c.table] = want{tuples: c.model.t.Len(), root: root}
			if c.side != nil {
				wants[0][c.sideTable] = want{tuples: c.sideModel.t.Len()}
			}
		}
	}
	for i, n := range e.nodes {
		flushed := n.log.synced.Load()
		data, err := os.ReadFile(n.path)
		if err != nil {
			return err
		}
		if int64(len(data)) < flushed {
			return fmt.Errorf("node %d: WAL holds %d bytes, fewer than the %d fsync covered", i, len(data), flushed)
		}
		crashed := n.path + ".crash"
		if err := os.WriteFile(crashed, data[:flushed], 0o600); err != nil {
			return err
		}
		st, err := storage.Open(crashed)
		if err != nil {
			return fmt.Errorf("node %d: replaying the flushed prefix: %w", i, err)
		}
		have := make(map[string]int)
		for _, info := range st.List() {
			have[info.Name] = info.Tuples
		}
		var bad error
		for name, w := range wants[i] {
			if have[name] != w.tuples {
				bad = fmt.Errorf("node %d: %s has %d tuples after restart, %d were acknowledged", i, name, have[name], w.tuples)
				break
			}
			if w.root != nil {
				root, _, _, err := st.Root(name)
				if err != nil || !bytes.Equal(root, w.root) {
					bad = fmt.Errorf("node %d: %s root after restart differs from the client's pinned root (err %v)", i, name, err)
					break
				}
			}
		}
		if err := st.Close(); err != nil && bad == nil {
			bad = err
		}
		if bad != nil {
			return bad
		}
	}
	return nil
}
