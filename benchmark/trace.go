package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/cache"
	"repro/internal/scanshare"
	"repro/internal/sched"
	"repro/internal/storage"
)

// The per-layer metrics, in print order (layer = package name).
// BENCHMARK.json lists the same names; the smoke test keeps the two
// equal. A metric whose layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"crypto.prf_sum_ns", "ns"},
	{"swp.match_ns", "ns"},
	{"swp.match_allocs", "count"},
	{"core.match_tuples_ns_per_tuple", "ns"},
	{"core.evaluate_serial_ms", "ms"},
	{"core.evaluate_ms", "ms"},
	{"core.encrypt_query_us", "us"},
	{"core.decrypt_result_us_per_tuple", "us"},
	{"core.false_positive_frac", "ratio"},
	{"core.encrypt_tuple_us", "us"},
	{"ph.select_positions_us", "us"},
	{"ph.select_positions_allocs", "count"},
	{"cache.hit_frac", "ratio"},
	{"cache.delta_frac", "ratio"},
	{"cache.miss_frac", "ratio"},
	{"cache.evictions", "count"},
	{"scanshare.riders_per_pass", "ratio"},
	{"scanshare.attached_frac", "ratio"},
	{"scanshare.shards_per_query", "ratio"},
	{"sched.extras_per_acquire", "ratio"},
	{"storage.query_miss_ms", "ms"},
	{"storage.query_hit_us", "us"},
	{"storage.query_hit_allocs", "count"},
	{"storage.query_delta_us", "us"},
	{"storage.query_verified_us", "us"},
	{"storage.append_us", "us"},
	{"storage.records_per_fsync", "ratio"},
	{"storage.log_sync_us", "us"},
	{"storage.log_write_us", "us"},
	{"storage.log_bytes_per_tuple", "B"},
	{"authindex.prove_us_per_tuple", "us"},
	{"authindex.verify_us_per_tuple", "us"},
	{"authindex.extend_us_per_leaf", "us"},
	{"authindex.proof_bytes_per_tuple", "B"},
	{"query.conj_us", "us"},
	{"query.full_scans_per_conj", "ratio"},
	{"query.narrowed_frac", "ratio"},
	{"wire.req_bytes_per_op", "B"},
	{"wire.resp_bytes_per_op", "B"},
	{"wire.roundtrips_per_op", "ratio"},
	{"wire.codec_us", "us"},
	{"server.rtt_floor_us", "us"},
	{"server.self_us", "us"},
	{"client.self_us", "us"},
	{"client.self_frac", "ratio"},
	{"client.insert_self_us", "us"},
	{"shard.scatter_self_us", "us"},
	{"shard.slowest_shard_frac", "ratio"},
	{"shard.subrequests_per_op", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.read_p99_ms", "ms"},
	{"bench.write_p99_ms", "ms"},
}

// counters is every monotonic count the harness can read off the
// servers from outside; per-layer ratios are differences of two.
type counters struct {
	cache             cache.Stats
	share             scanshare.Stats
	sched             sched.Stats
	log               storage.LogStats
	logBytes          int64
	tuples            int
	sent, recv, trips int64
}

func (e *env) counters() (counters, error) {
	var c counters
	for _, n := range e.nodes {
		cs, ss, ls := n.store.CacheStats(), n.store.ShareStats(), n.store.LogStats()
		c.cache.Hits += cs.Hits
		c.cache.Deltas += cs.Deltas
		c.cache.Misses += cs.Misses
		c.cache.Evictions += cs.Evictions
		c.share.Passes += ss.Passes
		c.share.Riders += ss.Riders
		c.share.Attached += ss.Attached
		c.share.Shards += ss.Shards
		c.share.Inline += ss.Inline
		c.log.Records += ls.Records
		c.log.Syncs += ls.Syncs
	}
	c.sched = sched.Process().Stats()
	var err error
	if c.logBytes, err = logBytes(e.nodes); err != nil {
		return c, err
	}
	c.tuples = e.storedTuples()
	c.sent, c.recv, c.trips = e.wireTotals()
	return c, nil
}

// wireTotals sums every client's connection counters.
func (e *env) wireTotals() (sent, recv, trips int64) {
	for _, c := range e.clients {
		s, r, t := c.dial.wireTotals()
		sent, recv, trips = sent+s, recv+r, trips+t
	}
	return sent, recv, trips
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one record of the trace file.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Op     int    `json:"op"`     // 0: not attributable to one call
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceFile is what out/trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// contained moves *next past the spans of seq (ordered, non-overlapping)
// that end inside [start, end] and returns those that also start there.
func contained[T any](seq []T, next *int, start, end int64, bounds func(T) (int64, int64)) []T {
	var in []T
	for *next < len(seq) {
		s, e := bounds(seq[*next])
		if e > end {
			break
		}
		if s >= start {
			in = append(in, seq[*next])
		}
		*next++
	}
	return in
}

// selfTimes is what the span tree yields: per call, the part of its
// duration no child span covers.
type selfTimes struct {
	readSelf, readFrac, insertSelf []float64 // client.DB call − its round trips
	readTrips                      []float64 // round-trip spans under read calls
	scatterSelf, slowestFrac       []float64 // Cluster call − its longest per-shard round trip
	shardTrips                     int
}

// assemble builds the span tree of the traced phase: each client's calls
// from `from` on are roots; their children are the round trips on the
// client's connection or, behind its coordinator, the Cluster calls,
// whose children are the round trips on its per-shard connections. Log
// spans are appended parentless.
func (e *env) assemble(from int) ([]span, selfTimes) {
	var (
		spans []span
		st    selfTimes
	)
	add := func(s span) int {
		s.ID = len(spans) + 1
		spans = append(spans, s)
		return s.ID
	}
	tripBounds := func(t trip) (int64, int64) { return t.start, t.end }
	for _, c := range e.clients {
		trips := c.dial.spans()
		nextTrip, nextCall := 0, 0
		for i, s := range c.samples[from:] {
			opID := (from+i)*numClients + c.id + 1
			root := add(span{Op: opID, Name: opNames[s.kind], Start: s.start, End: s.end})
			covered := 0.0
			var under []trip
			if c.coord == nil {
				under = contained(trips, &nextTrip, s.start, s.end, tripBounds)
				for _, t := range under {
					add(span{Parent: root, Op: opID, Name: "conn.roundtrip", Start: t.start, End: t.end})
					covered += float64(t.end - t.start)
				}
			} else {
				calls := contained(c.calls, &nextCall, s.start, s.end, func(cs callSpan) (int64, int64) { return cs.start, cs.end })
				for _, cs := range calls {
					call := add(span{Parent: root, Op: opID, Name: cs.name, Start: cs.start, End: cs.end})
					covered += float64(cs.end - cs.start)
					// Per-shard trips of one scatter overlap in time, so
					// they are matched by interval, not consumed in order.
					longest := 0.0
					for nextTrip < len(trips) && trips[nextTrip].start < cs.start {
						nextTrip++
					}
					for _, t := range trips[nextTrip:] {
						if t.start > cs.end {
							break
						}
						if t.end <= cs.end {
							add(span{Parent: call, Op: opID, Name: "conn.roundtrip", Start: t.start, End: t.end})
							under = append(under, t)
							longest = max(longest, float64(t.end-t.start))
							st.shardTrips++
						}
					}
					st.scatterSelf = append(st.scatterSelf, float64(cs.end-cs.start)-longest)
					st.slowestFrac = append(st.slowestFrac, ratio(longest, float64(cs.end-cs.start)))
				}
			}
			total := float64(s.end - s.start)
			if s.kind.isRead() {
				st.readSelf = append(st.readSelf, total-covered)
				st.readFrac = append(st.readFrac, ratio(total-covered, total))
				for _, t := range under {
					st.readTrips = append(st.readTrips, float64(t.end-t.start))
				}
			} else {
				st.insertSelf = append(st.insertSelf, total-covered)
			}
		}
	}
	for _, l := range e.tr.log {
		name := "storage.LogFile.Write"
		if l.sync {
			name = "storage.LogFile.Sync"
		}
		add(span{Name: fmt.Sprintf("%s[node%d]", name, l.node), Start: l.start, End: l.end})
	}
	return spans, st
}

// runTraced is the -trace run: one set-up, half the calls untraced, the
// other half with spans on (their difference is the tracing overhead),
// then the ladder. It returns the per-layer metrics; end-to-end metrics
// always come from runEndToEnd.
func runTraced(w *workloadSpec, cfg config, out *report) (result, error) {
	tr := newTracer()
	e, err := setUp(w, cfg, tr)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer e.tearDown()
	half := len(e.clients[0].ops) / 2
	runtime.GC()
	first := e.run(half)
	before, err := e.counters()
	if err != nil {
		return result{}, err
	}
	tr.on.Store(true)
	second := e.run(len(e.clients[0].ops) - half)
	tr.on.Store(false)
	after, err := e.counters()
	if err != nil {
		return result{}, err
	}
	untraced := e.statsOf(0, half, first)
	traced := e.statsOf(half, math.MaxInt, second)
	calls := float64(traced.attempted)

	v := make(map[string]float64)
	lookups := float64(after.cache.Hits - before.cache.Hits + after.cache.Deltas - before.cache.Deltas + after.cache.Misses - before.cache.Misses)
	v["cache.hit_frac"] = ratio(float64(after.cache.Hits-before.cache.Hits), lookups)
	v["cache.delta_frac"] = ratio(float64(after.cache.Deltas-before.cache.Deltas), lookups)
	v["cache.miss_frac"] = ratio(float64(after.cache.Misses-before.cache.Misses), lookups)
	v["cache.evictions"] = float64(after.cache.Evictions - before.cache.Evictions)
	riders := float64(after.share.Riders - before.share.Riders)
	attached := float64(after.share.Attached - before.share.Attached)
	inline := float64(after.share.Inline - before.share.Inline)
	v["scanshare.riders_per_pass"] = ratio(riders, float64(after.share.Passes-before.share.Passes))
	v["scanshare.attached_frac"] = ratio(attached, riders+attached+inline)
	v["scanshare.shards_per_query"] = ratio(float64(after.share.Shards-before.share.Shards), riders+attached)
	v["sched.extras_per_acquire"] = ratio(float64(after.sched.Extras-before.sched.Extras), float64(after.sched.Acquires-before.sched.Acquires))
	v["storage.records_per_fsync"] = ratio(float64(after.log.Records-before.log.Records), float64(after.log.Syncs-before.log.Syncs))
	v["storage.log_bytes_per_tuple"] = ratio(float64(after.logBytes-before.logBytes), float64(after.tuples-before.tuples))
	var syncs, writes []float64
	for _, l := range tr.log {
		if l.sync {
			syncs = append(syncs, float64(l.end-l.start)/1e3)
		} else {
			writes = append(writes, float64(l.end-l.start)/1e3)
		}
	}
	v["storage.log_sync_us"], v["storage.log_write_us"] = median(syncs), median(writes)
	v["wire.req_bytes_per_op"] = float64(after.sent-before.sent) / calls
	v["wire.resp_bytes_per_op"] = float64(after.recv-before.recv) / calls
	v["wire.roundtrips_per_op"] = float64(after.trips-before.trips) / calls

	spans, st := e.assemble(half)
	v["client.self_us"] = median(st.readSelf) / 1e3
	v["client.self_frac"] = median(st.readFrac)
	v["client.insert_self_us"] = median(st.insertSelf) / 1e3
	v["shard.scatter_self_us"] = median(st.scatterSelf) / 1e3
	v["shard.slowest_shard_frac"] = median(st.slowestFrac)
	v["shard.subrequests_per_op"] = float64(st.shardTrips) / calls
	v["bench.trace_overhead_frac"] = ratio(untraced.opsPerS-traced.opsPerS, untraced.opsPerS)
	v["bench.read_p99_ms"], v["bench.write_p99_ms"] = traced.readP99, traced.writeP99

	if err := e.runLadder(v); err != nil {
		return result{}, fmt.Errorf("ladder: %w", err)
	}
	direct := v[w.directRead]
	if strings.HasSuffix(w.directRead, "_ms") {
		direct *= 1e3
	}
	tripUs := median(st.readTrips) / 1e3
	v["server.self_us"] = tripUs - direct

	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := writeTrace(path, traceFile{Workload: w.name, Seed: cfg.seed, Spans: spans}); err != nil {
		return result{}, err
	}

	res := result{Attempted: untraced.attempted + traced.attempted, Failed: untraced.failed + traced.failed, Metrics: make(map[string]metric)}
	out.printf("%s, traced: %d calls untraced at %.1f/s, then %d calls traced at %.1f/s; %d spans in %s\n",
		w.name, untraced.attempted, untraced.opsPerS, traced.attempted, traced.opsPerS, len(spans), path)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
		out.printf("  %-34s %14.4f %s\n", m.name, v[m.name], m.unit)
	}
	printWaterfall(out, v, w.directRead, direct, tripUs, traced.readP50*1e3)
	res.Correct = e.verdict(&res, out)
	return res, nil
}

// printWaterfall lays the measured rows out as ROADMAP item A's
// waterfall: the scan path from one PRF call up to a cold store query,
// then this workload's read from the direct store call up to the
// client.DB call, each row with what it adds to the row above it.
func printWaterfall(out *report, v map[string]float64, directName string, directUs, tripUs, callUs float64) {
	rows := []struct {
		name string
		us   float64
	}{
		{"crypto.prf_sum", v["crypto.prf_sum_ns"] / 1e3},
		{"swp.match", v["swp.match_ns"] / 1e3},
		{"core.match_tuples, one tuple", v["core.match_tuples_ns_per_tuple"] / 1e3},
		{"core.evaluate_serial, table", v["core.evaluate_serial_ms"] * 1e3},
		{"storage.query_miss", v["storage.query_miss_ms"] * 1e3},
		{},
		{"ph.select_positions", v["ph.select_positions_us"]},
		{"storage.query_hit", v["storage.query_hit_us"]},
		{"storage.query_delta", v["storage.query_delta_us"]},
		{"storage.query_verified", v["storage.query_verified_us"]},
		{},
		{"this workload's read: " + directName, directUs},
		{"+ server, wire: round trip", tripUs},
		{"+ client: client.DB call", callUs},
	}
	out.printf("  waterfall (µs; what each row adds to the row above it):\n")
	prev := 0.0
	for _, r := range rows {
		if r.name == "" {
			prev = 0
			continue
		}
		out.printf("    %-46s %12.3f  %+12.3f\n", r.name, r.us, r.us-prev)
		prev = r.us
	}
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
