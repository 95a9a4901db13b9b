package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Transport robustness: everything in this file is about the network
// being allowed to fail. DialConfig turns the old one-shot net.Dial into
// a bounded, jittered retry loop with per-attempt timeouts; Conn gains a
// per-round-trip I/O deadline so a wedged server releases the client;
// and DB gains read replicas with failover — reads spread round-robin
// over healthy followers, any failure (transport, protocol, or a
// verification mismatch from a stale or lying replica) quarantines the
// follower with doubling jittered backoff and the read falls back to
// the primary. None of this weakens the trust model: a replica's answer
// is checked against the pinned root exactly like the primary's, so the
// worst a bad follower can do is cost one failover.

// Dial retry and quarantine defaults.
const (
	defaultDialTimeout = 5 * time.Second
	defaultDialTries   = 3
	defaultBackoffMin  = 50 * time.Millisecond
	defaultBackoffMax  = 2 * time.Second

	replicaBackoffMin = 100 * time.Millisecond
	replicaBackoffMax = 5 * time.Second
)

// DialConfig configures how the client reaches a server. The zero value
// gets sane defaults: 5s per attempt, 3 attempts, 50ms–2s jittered
// backoff between them, no I/O deadline on the resulting connection.
type DialConfig struct {
	// Timeout bounds one dial attempt. <=0 selects the default.
	Timeout time.Duration
	// Attempts is the total number of dial attempts before giving up.
	// <=0 selects the default; transient connection errors are retried,
	// which is the difference between "the replica was restarting" and a
	// failed query.
	Attempts int
	// BackoffMin/BackoffMax bound the jittered, doubling wait between
	// attempts. <=0 selects the defaults.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// IOTimeout, when positive, bounds every round trip on the resulting
	// connection (request write + response read): a server that accepts
	// the dial and then wedges cannot pin the caller forever.
	IOTimeout time.Duration
	// DialFunc replaces the underlying dial, for tests that want to
	// inject flaky transports. nil uses net.DialTimeout("tcp", ...).
	DialFunc func(addr string) (net.Conn, error)
}

func (cfg DialConfig) withDefaults() DialConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultDialTimeout
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = defaultDialTries
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = defaultBackoffMin
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = defaultBackoffMax
	}
	return cfg
}

// jitter spreads d over [d/2, 3d/2) so a fleet of clients retrying the
// same dead server does not reconverge in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// DialWithConfig connects to a server address with bounded retry: each
// attempt gets cfg.Timeout, failed attempts back off with doubling
// jittered waits, and the last attempt's error is reported with the
// attempt count.
func DialWithConfig(addr string, cfg DialConfig) (*Conn, error) {
	cfg = cfg.withDefaults()
	dial := cfg.DialFunc
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, cfg.Timeout) }
	}
	backoff := cfg.BackoffMin
	var lastErr error
	for attempt := 0; attempt < cfg.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(jitter(backoff))
			if backoff *= 2; backoff > cfg.BackoffMax {
				backoff = cfg.BackoffMax
			}
		}
		nc, err := dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		c := NewConn(nc)
		c.ioTimeout = cfg.IOTimeout
		return c, nil
	}
	return nil, fmt.Errorf("client: dialing %s: %d attempts failed: %w", addr, cfg.Attempts, lastErr)
}

// SetIOTimeout bounds every subsequent round trip on the connection
// (request write + response read). Zero removes the bound.
func (c *Conn) SetIOTimeout(d time.Duration) { c.ioTimeout = d }

// LogChunk is one CmdShipLog answer: a slice of the primary's
// write-ahead log plus the cursor bookkeeping a follower tails by.
type LogChunk struct {
	// Epoch names the log file the records belong to; it changes when
	// the primary compacts.
	Epoch uint64
	// Start is the sequence of the first record in Log. When it (or
	// Epoch) differs from the cursor the follower asked with, the
	// follower's history is gone and it must reset and re-apply from
	// Start.
	Start uint64
	// Head is the primary's record count; the follower is caught up when
	// its cursor reaches it.
	Head uint64
	// Log is the shipped records, whole and in log order, exactly as the
	// primary's log file holds them (storage.ApplyShipped's input).
	Log []byte
}

// ShipLog requests log records from the follower's cursor (epoch, from),
// with maxBytes bounding the answer (the server clamps it regardless).
func (c *Conn) ShipLog(epoch, from uint64, maxBytes uint32) (*LogChunk, error) {
	payload := wire.AppendU64(c.wbuf[:0], epoch)
	payload = wire.AppendU64(payload, from)
	resp, err := c.send(wire.CmdShipLog, wire.AppendU32(payload, maxBytes))
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.RespLogChunk {
		return nil, fmt.Errorf("client: unexpected response %#x to ship-log", resp.Type)
	}
	r := wire.NewBuffer(resp.Payload)
	ch := &LogChunk{}
	if ch.Epoch, err = r.U64(); err != nil {
		return nil, fmt.Errorf("client: log chunk epoch: %w", err)
	}
	if ch.Start, err = r.U64(); err != nil {
		return nil, fmt.Errorf("client: log chunk start: %w", err)
	}
	if ch.Head, err = r.U64(); err != nil {
		return nil, fmt.Errorf("client: log chunk head: %w", err)
	}
	if ch.Log, err = r.Bytes(); err != nil {
		return nil, fmt.Errorf("client: log chunk records: %w", err)
	}
	return ch, nil
}

// SnapshotChunk is one CmdShipSnapshot answer: a byte range of an
// encoded storage snapshot (storage.InstallSnapshot's input, once
// reassembled).
type SnapshotChunk struct {
	// Epoch and Seq identify the snapshot the bytes belong to (the
	// shipping cursor embedded in it). When they differ from the
	// identity the fetcher asked with, its partial transfer is void and
	// reassembly restarts at this chunk.
	Epoch uint64
	Seq   uint64
	// Total is the snapshot's full encoded length; the transfer is
	// complete when Offset+len(Data) == Total.
	Total uint64
	// Offset is the byte position Data starts at.
	Offset uint64
	// Data is the chunk.
	Data []byte
}

// ShipSnapshot requests bytes [offset, offset+maxBytes) of the snapshot
// identified by (epoch, seq) — zero identity for a fresh snapshot. The
// server clamps the budget regardless; the reply is validated for
// internal consistency here, and the reassembled snapshot is verified
// end to end by storage.InstallSnapshot.
func (c *Conn) ShipSnapshot(epoch, seq, offset uint64, maxBytes uint32) (*SnapshotChunk, error) {
	payload := wire.AppendU64(c.wbuf[:0], epoch)
	payload = wire.AppendU64(payload, seq)
	payload = wire.AppendU64(payload, offset)
	resp, err := c.send(wire.CmdShipSnapshot, wire.AppendU32(payload, maxBytes))
	if err != nil {
		return nil, err
	}
	if resp.Type != wire.RespSnapshotChunk {
		return nil, fmt.Errorf("client: unexpected response %#x to ship-snapshot", resp.Type)
	}
	r := wire.NewBuffer(resp.Payload)
	ch := &SnapshotChunk{}
	if ch.Epoch, err = r.U64(); err != nil {
		return nil, fmt.Errorf("client: snapshot chunk epoch: %w", err)
	}
	if ch.Seq, err = r.U64(); err != nil {
		return nil, fmt.Errorf("client: snapshot chunk seq: %w", err)
	}
	if ch.Total, err = r.U64(); err != nil {
		return nil, fmt.Errorf("client: snapshot chunk total: %w", err)
	}
	if ch.Offset, err = r.U64(); err != nil {
		return nil, fmt.Errorf("client: snapshot chunk offset: %w", err)
	}
	if ch.Data, err = r.Bytes(); err != nil {
		return nil, fmt.Errorf("client: snapshot chunk data: %w", err)
	}
	if ch.Offset > ch.Total || uint64(len(ch.Data)) > ch.Total-ch.Offset {
		return nil, fmt.Errorf("client: snapshot chunk [%d, %d+%d) exceeds declared total %d", ch.Offset, ch.Offset, len(ch.Data), ch.Total)
	}
	return ch, nil
}

// ReadStats counts where a DB's reads were served and how often replicas
// failed, for observability and for the failover tests.
type ReadStats struct {
	// ReplicaReads is the number of reads answered by a replica.
	ReplicaReads uint64
	// PrimaryReads is the number of reads answered by the primary.
	PrimaryReads uint64
	// Failovers is the number of reads that fell back to the primary
	// despite configured replicas (all dead, quarantined, or failing).
	Failovers uint64
	// ReplicaFailures counts individual replica attempts that failed —
	// transport errors, protocol errors, and verification mismatches
	// (stale or Byzantine followers) alike.
	ReplicaFailures uint64
}

// replicaState tracks one read replica's connection and health. A
// failure closes the cached connection and quarantines the replica with
// doubling jittered backoff; a success resets the backoff.
type replicaState struct {
	dial             func() (*Conn, error)
	conn             *Conn
	backoff          time.Duration
	quarantinedUntil time.Time
}

func (r *replicaState) get() (*Conn, error) {
	if r.conn != nil {
		return r.conn, nil
	}
	c, err := r.dial()
	if err != nil {
		return nil, err
	}
	r.conn = c
	return c, nil
}

func (r *replicaState) fail() {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	if r.backoff <= 0 {
		r.backoff = replicaBackoffMin
	} else if r.backoff *= 2; r.backoff > replicaBackoffMax {
		r.backoff = replicaBackoffMax
	}
	r.quarantinedUntil = time.Now().Add(jitter(r.backoff))
}

func (r *replicaState) ok() {
	r.backoff = 0
	r.quarantinedUntil = time.Time{}
}

// ReadPool routes self-contained requests over one primary endpoint and
// any number of read replicas: round-robin over healthy replicas with
// quarantine backoff, failover to the primary when none answers. It is
// the routing machinery DB always had, extracted and made safe for
// concurrent use so a shard coordinator (internal/shard) can keep one
// pool per shard and scatter to them from concurrently served requests.
//
// The pool's mutex is held for the whole attempt, round trip included,
// because a Conn is single-user: it is not safe for concurrent use, so
// one pool serves exactly one request at a time and concurrent callers
// queue. Independent pools (different shards) proceed in parallel.
type ReadPool struct {
	mu sync.Mutex
	// fixed is a caller-owned primary connection (DB mode); the pool
	// never closes it. Exactly one of fixed/primary is set.
	fixed *Conn
	// primary is a pool-owned dialed primary (coordinator mode): cached,
	// closed and redialed after transport failures.
	primary  *replicaState
	replicas []*replicaState
	rrNext   int
	stats    ReadStats
}

// NewReadPool builds a pool over a caller-owned primary connection. The
// pool never closes it; Close only releases replica connections.
func NewReadPool(primary *Conn) *ReadPool {
	return &ReadPool{fixed: primary}
}

// NewReadPoolDial builds a pool that owns its primary: dialed on first
// use, closed and redialed after transport failures, closed by Close.
func NewReadPoolDial(dial func() (*Conn, error)) *ReadPool {
	return &ReadPool{primary: &replicaState{dial: dial}}
}

// AddReplica registers a read replica by dial function (the seam tests
// and in-memory transports use).
func (p *ReadPool) AddReplica(dial func() (*Conn, error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.replicas = append(p.replicas, &replicaState{dial: dial})
}

// AddReplicas registers TCP read replicas dialed with cfg.
func (p *ReadPool) AddReplicas(cfg DialConfig, addrs ...string) {
	for _, addr := range addrs {
		addr := addr
		p.AddReplica(func() (*Conn, error) { return DialWithConfig(addr, cfg) })
	}
}

// Stats returns a snapshot of the pool's read-routing counters.
func (p *ReadPool) Stats() ReadStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close releases every connection the pool owns: cached replica
// connections, and the dialed primary if the pool owns one. A fixed
// primary (NewReadPool) belongs to the caller and is left open.
func (p *ReadPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	if p.primary != nil && p.primary.conn != nil {
		err = p.primary.conn.Close()
		p.primary.conn = nil
	}
	for _, r := range p.replicas {
		if r.conn != nil {
			if cerr := r.conn.Close(); cerr != nil && err == nil {
				err = cerr
			}
			r.conn = nil
		}
	}
	return err
}

// primaryConn returns the primary connection, dialing if the pool owns
// its primary and has none cached. Must be called with p.mu held.
func (p *ReadPool) primaryConn() (*Conn, error) {
	if p.fixed != nil {
		return p.fixed, nil
	}
	return p.primary.get()
}

// Do runs one self-contained read: round-robin over healthy replicas
// first, falling back to the primary when none answers. fn must be a
// complete read — request, decode, AND verification — with side effects
// only on success, so a failed replica attempt (including a Byzantine
// answer caught by the pinned-root check) can be retried elsewhere
// cleanly. The primary attempt's error is returned as-is: the primary
// is the source of truth, and its verification failure is a real alarm,
// not a routing event.
func (p *ReadPool) Do(fn func(c *Conn) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.replicas)
	if n > 0 {
		now := time.Now()
		for i := 0; i < n; i++ {
			r := p.replicas[(p.rrNext+i)%n]
			if now.Before(r.quarantinedUntil) {
				continue
			}
			c, err := r.get()
			if err != nil {
				p.stats.ReplicaFailures++
				r.fail()
				continue
			}
			if err := fn(c); err != nil {
				p.stats.ReplicaFailures++
				r.fail()
				continue
			}
			r.ok()
			p.rrNext = (p.rrNext + i + 1) % n
			p.stats.ReplicaReads++
			return nil
		}
		p.stats.Failovers++
	}
	p.stats.PrimaryReads++
	c, err := p.primaryConn()
	if err != nil {
		return err
	}
	if err := fn(c); err != nil {
		// A transport failure on an owned primary voids the cached
		// connection so the next attempt redials; a remote error means
		// the connection is healthy and the server answered.
		if p.primary != nil && !IsRemote(err) {
			p.primary.fail()
		}
		return err
	}
	if p.primary != nil {
		p.primary.ok()
	}
	return nil
}

// DoPrimary runs fn against the primary only — the write path. Errors
// are returned as-is; a transport failure on an owned primary voids the
// cached connection so the next call redials.
func (p *ReadPool) DoPrimary(fn func(c *Conn) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, err := p.primaryConn()
	if err != nil {
		return err
	}
	if err := fn(c); err != nil {
		if p.primary != nil && !IsRemote(err) {
			p.primary.fail()
		}
		return err
	}
	return nil
}

// AddReplica registers a read replica by dial function (the seam tests
// and in-memory transports use). Like the rest of DB, not safe for
// concurrent use. A sharded DB has no single primary to stand beside:
// its followers attach per shard, so it refuses.
func (db *DB) AddReplica(dial func() (*Conn, error)) error {
	if db.cluster != nil {
		return errShardedReplicas
	}
	db.pool.AddReplica(dial)
	return nil
}

// AddReplicas registers TCP read replicas dialed with cfg; a sharded DB
// refuses, as AddReplica does.
func (db *DB) AddReplicas(cfg DialConfig, addrs ...string) error {
	if db.cluster != nil {
		return errShardedReplicas
	}
	db.pool.AddReplicas(cfg, addrs...)
	return nil
}

var errShardedReplicas = errors.New("client: a sharded DB attaches read replicas per shard (ShardConfig.Replicas)")

// ReadStats returns the DB's read-routing counters. For a sharded DB
// the per-shard counters live with the cluster (e.g. the coordinator's
// ShardStats); this reports only reads routed through the DB's own
// primary pool.
func (db *DB) ReadStats() ReadStats {
	if db.pool == nil {
		return ReadStats{}
	}
	return db.pool.Stats()
}

// withRead routes one self-contained read through the DB's pool; see
// ReadPool.Do for the discipline fn must follow.
func (db *DB) withRead(fn func(c *Conn) error) error {
	return db.pool.Do(fn)
}
