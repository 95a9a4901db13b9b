package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

// debug is what -debug-addr serves from: the server, and the store or
// the coordinator behind it. Every figure is read from the counters the
// layers keep anyway, at scrape time; nothing on the request path knows
// it exists.
type debug struct {
	srv      *server.Server
	store    *storage.Store     // nil on a coordinator
	co       *shard.Coordinator // nil unless -coordinator
	follower *replica.Follower  // nil unless -replica-of
}

// handler is the debug endpoints' own mux: /metrics, /healthz, /readyz
// and /debug/pprof/.
func (d *debug) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.writeMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if why := d.notReady(); why != "" {
			http.Error(w, why, http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// notReady says why the server should get no traffic, or "" when it
// may: a follower that has not installed a consistent cut refuses every
// request, and a store whose log has failed refuses every mutation.
func (d *debug) notReady() string {
	if d.follower != nil && !d.follower.Ready() {
		return "not ready: the replica has not caught up with its primary"
	}
	if d.store != nil {
		if err := d.store.LogErr(); err != nil {
			return fmt.Sprintf("not ready: read-only after a log failure: %v", err)
		}
	}
	return ""
}

// writeMetrics writes every figure in the Prometheus text format.
func (d *debug) writeMetrics(w io.Writer) {
	up := 0
	if d.notReady() == "" {
		up = 1
	}
	metric(w, "phserver_ready", "gauge", "1 when /readyz would answer 200.", sample{v: uint64(up)})
	metric(w, "phserver_connections", "gauge", "Client connections being served.", sample{v: uint64(d.srv.Conns())})
	b := sched.Process().Stats()
	metric(w, "phserver_sched_acquires_total", "counter", "Scan allotments drawn from the scheduler budget.", sample{v: b.Acquires})
	metric(w, "phserver_sched_extra_workers_total", "counter", "Workers granted beyond the caller across all allotments.", sample{v: b.Extras})
	if d.co != nil {
		metric(w, "phserver_shards", "gauge", "Shards behind the coordinator.", sample{v: uint64(d.co.NumShards())})
		var primary, replica, failovers, failures []sample
		for i, st := range d.co.ShardStats() {
			l := fmt.Sprintf(`shard="%d"`, i)
			primary = append(primary, sample{l, st.PrimaryReads})
			replica = append(replica, sample{l, st.ReplicaReads})
			failovers = append(failovers, sample{l, st.Failovers})
			failures = append(failures, sample{l, st.ReplicaFailures})
		}
		metric(w, "phserver_shard_primary_reads_total", "counter", "Shard reads answered by the shard's primary.", primary...)
		metric(w, "phserver_shard_replica_reads_total", "counter", "Shard reads answered by a replica.", replica...)
		metric(w, "phserver_shard_failovers_total", "counter", "Shard reads that fell back to the primary.", failovers...)
		metric(w, "phserver_shard_replica_failures_total", "counter", "Failed replica attempts, verification mismatches included.", failures...)
	}
	if d.follower != nil {
		st := d.follower.Status()
		metric(w, "phserver_replica_lag_records", "gauge", "Records the primary's log held at the last poll beyond those applied.", sample{v: st.Head - min(st.Applied, st.Head)})
		metric(w, "phserver_replica_resets_total", "counter", "Re-bootstraps: the primary compacted, restarted into a new log, or a record failed to apply.", sample{v: st.Resets})
		metric(w, "phserver_replica_snapshots_total", "counter", "Snapshots installed.", sample{v: st.Snapshots})
	}
	if d.store == nil {
		return
	}
	c := d.store.CacheStats()
	metric(w, "phserver_cache_lookups_total", "counter", "Result-cache lookups, one per conjunct read, by outcome.",
		sample{`outcome="hit"`, c.Hits}, sample{`outcome="delta"`, c.Deltas}, sample{`outcome="miss"`, c.Misses})
	metric(w, "phserver_cache_evictions_total", "counter", "Result-cache entries dropped for room.", sample{v: c.Evictions})
	metric(w, "phserver_cache_invalidations_total", "counter", "Result-cache entries dropped with their table.", sample{v: c.Invalidations})
	s := d.store.ShareStats()
	metric(w, "phserver_scans_total", "counter", "Full-table scans started.", sample{v: s.Passes})
	metric(w, "phserver_scans_attached_total", "counter", "Reads that waited on an identical scan in flight instead of scanning.", sample{v: s.Attached})
	l := d.store.LogStats()
	metric(w, "phserver_log_records_total", "counter", "Mutations accepted by the write-ahead log.", sample{v: l.Records})
	metric(w, "phserver_log_syncs_total", "counter", "Write-ahead log fsyncs.", sample{v: l.Syncs})
	var tables, tuples uint64
	for _, t := range d.store.List() {
		tables, tuples = tables+1, tuples+uint64(t.Tuples)
	}
	metric(w, "phserver_tables", "gauge", "Stored tables.", sample{v: tables})
	metric(w, "phserver_tuples", "gauge", "Stored encrypted tuples, all tables.", sample{v: tuples})
}

// sample is one value of a metric, under its labels (none when empty).
type sample struct {
	labels string
	v      uint64
}

// metric writes one metric family: its help, its type and its samples.
func metric(w io.Writer, name, typ, help string, samples ...sample) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		if s.labels != "" {
			fmt.Fprintf(w, "%s{%s} %d\n", name, s.labels, s.v)
		} else {
			fmt.Fprintf(w, "%s %d\n", name, s.v)
		}
	}
}

// serveDebug serves d's endpoints on addr, in the background, for the
// life of the process.
func serveDebug(addr string, d *debug, logger *log.Logger) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Fatalf("debug listen: %v", err)
	}
	logger.Printf("debug endpoints (/metrics, /healthz, /readyz, /debug/pprof/) on %s", l.Addr())
	go func() {
		if err := http.Serve(l, d.handler()); err != nil {
			logger.Printf("debug server: %v", err)
		}
	}()
}
