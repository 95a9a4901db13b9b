// Command phserver runs Eve: the untrusted database service provider. It
// stores encrypted tables and evaluates encrypted queries without ever
// holding keys. It stores tables of the paper's construction (swp-ph)
// only, and refuses a table of any other scheme.
//
// Usage:
//
//	phserver [-addr :7632] [-log /path/to/store.log] [-sync always|interval|never] [-sync-interval 100ms]
//	phserver [-addr :7633] -replica-of primary:7632 [-poll 100ms] [-log /path/to/replica.log]
//	phserver [-addr :7640] -coordinator -shards host1:7632,host2:7632 [-shard-map-version 1]
//	phserver ... [-debug-addr 127.0.0.1:7700]
//
// With -log the store is durable: mutations are appended to a
// checksummed write-ahead log and replayed on restart (torn or corrupt
// tails from crashes are truncated). -sync selects when acknowledged
// writes are fsynced: "always" (the default) fsyncs before every
// acknowledgement, with concurrent writers sharing one fsync through
// group commit; "interval" fsyncs in the background every
// -sync-interval; "never" leaves flushing to the OS. Without -log the
// store is in-memory and the sync flags are ignored.
//
// With -replica-of the server runs as a read replica: it bootstraps
// from the primary's state snapshot, tails the primary's write-ahead
// log over the wire, and serves reads from the replayed store;
// mutations are rejected with a message naming the primary.
// Until the replica has a consistent cut to serve it refuses reads too
// (clients quarantine it and fail over). Replicas hold no trusted
// state — clients verify replica answers against their pinned root
// exactly as they verify the primary's. -replica-of composes with
// -log: a durable replica persists what it replays and resumes tailing
// from its recorded cursor after a restart instead of re-bootstrapping.
//
// With -coordinator the server holds no store at all: it is the
// scatter-gather tier over the -shards backends (comma-separated
// addresses, whose *order is the partition map* — it must match the
// clients' shards config, as must -shard-map-version). It takes the
// ordinary commands and answers each in one envelope, framed per shard:
// reads and fetches scatter to every shard and come back as per-shard
// sub-answers, inserts as per-shard placement acks, so verifying clients
// check each sub-answer against their pinned per-shard root vector. A
// single-server client pointed at it fails loudly on every read and
// insert; clients reach it through shard.Remote. A coordinator remains
// exactly as untrusted as any single server.
// -shard-replicas attaches read replicas per shard index, e.g.
// "0=r1:7633,r2:7633;2=r3:7633" (followers attach per shard — the
// coordinator itself cannot be tailed).
//
// -idle-timeout, -write-timeout and -max-conns bound per-connection
// I/O and the connection count on any server (0 = unlimited).
//
// -debug-addr ADDR (off by default) serves, on a listener of its own:
// /metrics, the Prometheus text format of the counters the layers keep
// — result-cache lookups by outcome, scans started and attached to, log
// records and fsyncs, scheduler allotments, tables, tuples, open
// connections and, on a coordinator, per-shard read routing — read at
// scrape time; /healthz, 200 while the process runs; /readyz, 503 while
// a replica has not caught up or after a log failure has left the store
// read-only, 200 otherwise; and /debug/pprof/. Keep it on a loopback or
// otherwise private address: it serves profiles of the process.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

func main() {
	var (
		addr      = flag.String("addr", ":7632", "listen address")
		logPath   = flag.String("log", "", "write-ahead persistence log (empty = in-memory)")
		syncMode  = flag.String("sync", "always", "log sync policy: always (group-commit fsync per ack), interval (background fsync), never")
		syncIvl   = flag.Duration("sync-interval", storage.DefaultSyncInterval, "background fsync period under -sync interval")
		replicaOf = flag.String("replica-of", "", "run as a read replica tailing this primary address")
		poll      = flag.Duration("poll", 100*time.Millisecond, "replica poll interval once caught up")
		coord     = flag.Bool("coordinator", false, "run as a scatter-gather coordinator over -shards (no local store)")
		shards    = flag.String("shards", "", "comma-separated shard backend addresses, in partition-map order")
		shardVer  = flag.Uint64("shard-map-version", 1, "partition map version (must match client configs)")
		shardReps = flag.String("shard-replicas", "", "per-shard read replicas, e.g. \"0=r1:7633,r2:7633;2=r3:7633\"")
		idleTO    = flag.Duration("idle-timeout", 0, "per-connection idle deadline between frames (0 = none)")
		writeTO   = flag.Duration("write-timeout", 0, "per-response write deadline (0 = none)")
		maxConns  = flag.Int("max-conns", 0, "maximum concurrent connections (0 = unlimited)")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz and /debug/pprof/ on this address (empty = off)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "phserver: ", log.LstdFlags)

	opts := server.Options{
		IdleTimeout:  *idleTO,
		WriteTimeout: *writeTO,
		MaxConns:     *maxConns,
	}

	if *coord {
		cfg, err := parseShardsFlags(*shards, *shardVer, *shardReps)
		if err != nil {
			logger.Fatalf("bad shard flags: %v", err)
		}
		co, err := shard.FromConfig(cfg, client.DialConfig{})
		if err != nil {
			logger.Fatalf("building coordinator: %v", err)
		}
		defer co.Close()
		srv := server.NewProxy(co, logger, opts)
		logger.Printf("coordinator over %d shards (partition map v%d); no local store", co.NumShards(), co.MapVersion())
		if *debugAddr != "" {
			serveDebug(*debugAddr, &debug{srv: srv, co: co}, logger)
		}
		serve(srv, *addr, logger)
		return
	}

	var store *storage.Store
	var follower *replica.Follower
	switch {
	case *replicaOf != "":
		ropts := replica.Options{PollInterval: *poll, Logf: logger.Printf}
		if *logPath != "" {
			// A durable follower: replayed records land in its own WAL
			// and the ship-base sidecar lets a restart resume tailing
			// instead of re-bootstrapping.
			policy, err := storage.ParseSyncPolicy(*syncMode)
			if err != nil {
				logger.Fatalf("bad -sync flag: %v", err)
			}
			rst, err := storage.OpenOptions(*logPath, storage.Options{Sync: policy, SyncInterval: *syncIvl})
			if err != nil {
				logger.Fatalf("opening replica store: %v", err)
			}
			defer rst.Close()
			ropts.Store = rst
			logger.Printf("durable replica store at %s (sync policy %s)", *logPath, policy)
		}
		follower = replica.New(func() (*client.Conn, error) {
			return client.DialWithConfig(*replicaOf, client.DialConfig{})
		}, ropts)
		defer follower.Close()
		store = follower.Store()
		opts.ReadOnly = true
		opts.Ready = follower.Ready
		logger.Printf("read replica of %s (poll %s); mutations rejected, reads refused until caught up", *replicaOf, *poll)
	case *logPath != "":
		policy, err := storage.ParseSyncPolicy(*syncMode)
		if err != nil {
			logger.Fatalf("bad -sync flag: %v", err)
		}
		store, err = storage.OpenOptions(*logPath, storage.Options{Sync: policy, SyncInterval: *syncIvl})
		if err != nil {
			logger.Fatalf("opening store: %v", err)
		}
		defer store.Close()
		logger.Printf("durable store at %s (sync policy %s)", *logPath, policy)
	default:
		store = storage.NewMemory()
		logger.Print("in-memory store (no -log given)")
	}

	srv := server.NewWithOptions(store, logger, opts)
	for _, info := range store.List() {
		logger.Printf("replayed table %q (%s, %d tuples)", info.Name, info.SchemeID, info.Tuples)
	}
	if *debugAddr != "" {
		serveDebug(*debugAddr, &debug{srv: srv, store: store, ready: opts.Ready}, logger)
	}
	serve(srv, *addr, logger)
}

// serve listens on addr and runs srv until a termination signal.
func serve(srv *server.Server, addr string, logger *log.Logger) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	logger.Printf("listening on %s", l.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintln(os.Stderr)
		logger.Printf("received %s, shutting down", s)
		srv.Close()
	}()

	if err := srv.Serve(l); err != nil {
		logger.Fatalf("serve: %v", err)
	}
	logger.Print("bye")
}

// parseShardsFlags assembles a client.ShardsConfig from the coordinator
// flags: the ordered backend list (the order IS the partition map), the
// map version, and the optional per-shard replica spec
// ("idx=addr,addr;idx=addr").
func parseShardsFlags(shards string, version uint64, replicaSpec string) (*client.ShardsConfig, error) {
	if shards == "" {
		return nil, fmt.Errorf("-coordinator requires -shards")
	}
	cfg := &client.ShardsConfig{Version: version}
	for _, addr := range strings.Split(shards, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("empty shard address in -shards")
		}
		cfg.Shards = append(cfg.Shards, client.ShardConfig{Addr: addr})
	}
	if replicaSpec != "" {
		for _, entry := range strings.Split(replicaSpec, ";") {
			idxStr, addrs, ok := strings.Cut(entry, "=")
			if !ok {
				return nil, fmt.Errorf("bad -shard-replicas entry %q (want idx=addr,addr)", entry)
			}
			idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
			if err != nil || idx < 0 || idx >= len(cfg.Shards) {
				return nil, fmt.Errorf("bad shard index %q in -shard-replicas (have %d shards)", idxStr, len(cfg.Shards))
			}
			for _, a := range strings.Split(addrs, ",") {
				a = strings.TrimSpace(a)
				if a == "" {
					return nil, fmt.Errorf("empty replica address for shard %d", idx)
				}
				cfg.Shards[idx].Replicas = append(cfg.Shards[idx].Replicas, a)
			}
		}
	}
	return cfg, nil
}
