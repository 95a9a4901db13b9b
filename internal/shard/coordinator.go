package shard

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/authindex"
	"repro/internal/client"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

// Coordinator scatters reads and writes over the shards of a partition
// map, one replica-aware connection pool per shard. It implements both
// client.Cluster — so a local client embeds it directly — and
// server.Backend — so `phserver -coordinator` serves the same scatter
// to remote clients over the wire protocol.
//
// Every scatter runs the shards concurrently; a shard's reads go
// through its pool's routing (round-robin over healthy followers,
// quarantine with backoff on any failure, fallback to the shard
// primary), so a Byzantine follower on one shard is detected by the
// verification callback *inside* the routing and handled exactly like a
// dead one: quarantined, read retried elsewhere, surviving shards
// unaffected. The coordinator holds no locks of its own across I/O —
// per-shard serialisation lives in the pools (one in-flight request per
// connection).
type Coordinator struct {
	reads
	m     Map
	pools []*client.ReadPool
}

// Compile-time checks: the coordinator serves both embeddings.
var (
	_ client.Cluster = (*Coordinator)(nil)
	_ client.Cluster = (*Remote)(nil)
)

// NewCoordinator builds a coordinator over pre-built per-shard pools
// (pool i serves shard i). The pools are owned by the coordinator from
// here on: Close closes them.
func NewCoordinator(m Map, pools []*client.ReadPool) (*Coordinator, error) {
	if m.Count < 1 {
		return nil, fmt.Errorf("shard: partition map must have at least 1 shard, got %d", m.Count)
	}
	if len(pools) != m.Count {
		return nil, fmt.Errorf("shard: %d pools for a %d-shard map", len(pools), m.Count)
	}
	co := &Coordinator{m: m, pools: pools}
	co.reads = co.read
	return co, nil
}

// FromConfig builds a coordinator from a client shards config: one
// dialed pool per shard, with that shard's read replicas attached.
// Dials are lazy (first use) and redialed on transport failure.
func FromConfig(sc *client.ShardsConfig, cfg client.DialConfig) (*Coordinator, error) {
	if sc == nil || len(sc.Shards) == 0 {
		return nil, fmt.Errorf("shard: empty shards config")
	}
	pools := make([]*client.ReadPool, len(sc.Shards))
	for i, s := range sc.Shards {
		addr := s.Addr
		pool := client.NewReadPoolDial(func() (*client.Conn, error) {
			return client.DialWithConfig(addr, cfg)
		})
		pool.AddReplicas(cfg, s.Replicas...)
		pools[i] = pool
	}
	return NewCoordinator(Map{Version: sc.Version, Count: len(sc.Shards)}, pools)
}

// Close closes every shard pool.
func (co *Coordinator) Close() error {
	var first error
	for _, p := range co.pools {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardStats returns each shard pool's read-routing counters, indexed
// by shard (failovers, replica failures, quarantines — the observability
// surface the Byzantine-shard drill asserts on).
func (co *Coordinator) ShardStats() []client.ReadStats {
	stats := make([]client.ReadStats, len(co.pools))
	for i, p := range co.pools {
		stats[i] = p.Stats()
	}
	return stats
}

// scatter runs fn once per shard, concurrently — the last shard's leg
// on the calling goroutine, every other on one of its own — and waits
// for all of them. When several shards fail the lowest shard's error
// wins, so the reported failure is deterministic regardless of
// goroutine timing. Its bookkeeping comes from a pool: a scatter
// allocates one goroutine's closure per shard past the first.
func (co *Coordinator) scatter(fn func(shard int, pool *client.ReadPool) error) error {
	sc := scatterCalls.Get().(*scatterCall)
	*sc = scatterCall{co: co, fn: fn, shard: len(co.pools)}
	last := len(co.pools) - 1
	sc.wg.Add(last)
	for i := range last {
		go func() {
			defer sc.wg.Done()
			sc.leg(i)
		}()
	}
	sc.leg(last)
	sc.wg.Wait()
	shard, err := sc.shard, sc.err
	*sc = scatterCall{}
	scatterCalls.Put(sc)
	if err != nil {
		return fmt.Errorf("shard %d: %w", shard, err)
	}
	return nil
}

// scatterCall is one scatter's state: the legs to wait for and the
// lowest failed shard with its error (shard is len(co.pools) while none
// has failed).
type scatterCall struct {
	co    *Coordinator
	fn    func(shard int, pool *client.ReadPool) error
	wg    sync.WaitGroup
	mu    sync.Mutex
	shard int
	err   error
}

var scatterCalls = sync.Pool{New: func() any { return new(scatterCall) }}

// leg runs the scatter's fn for shard i and keeps its error if no lower
// shard's is kept.
func (sc *scatterCall) leg(i int) {
	if err := sc.fn(i, sc.co.pools[i]); err != nil {
		sc.mu.Lock()
		if i < sc.shard {
			sc.shard, sc.err = i, err
		}
		sc.mu.Unlock()
	}
}

// NumShards returns the partition map's shard count.
func (co *Coordinator) NumShards() int { return co.m.Count }

// MapVersion returns the partition map's version stamp.
func (co *Coordinator) MapVersion() uint64 { return co.m.Version }

// Split partitions tuples with the coordinator's map.
func (co *Coordinator) Split(tuples []ph.EncryptedTuple) [][]ph.EncryptedTuple {
	return co.m.Split(tuples)
}

// Store partitions the table and installs each part on its shard (every
// shard gets the table, even an empty part — queries scatter to all of
// them and each needs the schema/meta to answer).
func (co *Coordinator) Store(name string, t *ph.EncryptedTable) error {
	parts := co.m.Split(t.Tuples)
	return co.scatter(func(i int, pool *client.ReadPool) error {
		part := &ph.EncryptedTable{SchemeID: t.SchemeID, Meta: t.Meta, Tuples: parts[i]}
		return pool.DoPrimary(func(c *client.Conn) error {
			return c.Store(name, part)
		})
	})
}

// Insert partitions the tuples and appends each non-empty part through
// its shard's CmdInsert, returning one placement ack per shard
// (zero-valued for untouched shards).
func (co *Coordinator) Insert(name string, tuples []ph.EncryptedTuple) ([]client.InsertAck, error) {
	parts := co.m.Split(tuples)
	acks := make([]client.InsertAck, co.m.Count)
	err := co.scatter(func(i int, pool *client.ReadPool) error {
		if len(parts[i]) == 0 {
			return nil
		}
		return pool.DoPrimary(func(c *client.Conn) error {
			ack, err := c.Insert(name, parts[i])
			if err != nil {
				return err
			}
			acks[i] = ack
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return acks, nil
}

// read is the coordinator's one scatter: the whole read request goes to
// every shard — each plans against its own memo — and the answers
// come back as [shard][plan]. The check callback runs *inside* each
// shard's read routing: a sub-answer that fails verification is treated
// exactly like a transport failure — the answering follower is
// quarantined and the shard's read retried on another node — so one
// Byzantine follower degrades one shard's capacity, not the cluster's
// correctness.
func (co *Coordinator) read(name string, flags byte, plans [][]*ph.EncryptedQuery, check client.VerifyCheck) ([][]query.Response, error) {
	out := make([][]query.Response, co.m.Count)
	err := co.scatter(func(i int, pool *client.ReadPool) error {
		return pool.Do(func(c *client.Conn) error {
			resps, err := c.Read(name, flags, plans)
			if err != nil {
				return err
			}
			if err := checkAll(check, i, flags, resps); err != nil {
				return err
			}
			out[i] = resps
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// reads is one scatter of a read request — [shard][plan] answers, check
// applied to every verified one — and, as methods, client.Cluster's read
// surface over it. Coordinator and Remote each supply their scatter and
// embed the rest.
type reads func(name string, flags byte, plans [][]*ph.EncryptedQuery, check client.VerifyCheck) ([][]query.Response, error)

// checkAll runs the verification callback over one shard's verified
// answers.
func checkAll(check client.VerifyCheck, shard int, flags byte, resps []query.Response) error {
	if check == nil || flags != wire.ReadFlagVerified {
		return nil
	}
	for _, resp := range resps {
		if err := check(shard, resp.Verified); err != nil {
			return err
		}
	}
	return nil
}

// QueryBatch scatters a batch of single selects; answers are
// [shard][query].
func (read reads) QueryBatch(name string, qs []*ph.EncryptedQuery) ([][]*ph.Result, error) {
	plans := make([][]*ph.EncryptedQuery, len(qs))
	for j := range qs {
		plans[j] = qs[j : j+1]
	}
	perShard, err := read(name, 0, plans, nil)
	if err != nil {
		return nil, err
	}
	out := make([][]*ph.Result, len(perShard))
	for i, resps := range perShard {
		out[i] = make([]*ph.Result, len(resps))
		for j, resp := range resps {
			out[i][j] = resp.Result
		}
	}
	return out, nil
}

// QueryConj scatters one plan; answers are per shard, verified (and
// checked) when asked.
func (read reads) QueryConj(name string, qs []*ph.EncryptedQuery, verified bool, check client.VerifyCheck) ([]*query.Response, error) {
	var flags byte
	if verified {
		flags = wire.ReadFlagVerified
	}
	return read.one(name, flags, qs, check)
}

// one scatters a single plan and returns its answer per shard.
func (read reads) one(name string, flags byte, qs []*ph.EncryptedQuery, check client.VerifyCheck) ([]*query.Response, error) {
	perShard, err := read(name, flags, [][]*ph.EncryptedQuery{qs}, check)
	if err != nil {
		return nil, err
	}
	out := make([]*query.Response, len(perShard))
	for i, resps := range perShard {
		out[i] = &resps[0]
	}
	return out, nil
}

// Query scatters one select.
func (read reads) Query(name string, q *ph.EncryptedQuery) ([]*ph.Result, error) {
	resps, err := read.one(name, 0, []*ph.EncryptedQuery{q}, nil)
	if err != nil {
		return nil, err
	}
	out := make([]*ph.Result, len(resps))
	for i, resp := range resps {
		out[i] = resp.Result
	}
	return out, nil
}

// QueryVerified scatters one verified select.
func (read reads) QueryVerified(name string, q *ph.EncryptedQuery, check client.VerifyCheck) ([]*authindex.VerifiedResult, error) {
	resps, err := read.one(name, wire.ReadFlagVerified, []*ph.EncryptedQuery{q}, check)
	if err != nil {
		return nil, err
	}
	out := make([]*authindex.VerifiedResult, len(resps))
	for i, resp := range resps {
		out[i] = resp.Verified
	}
	return out, nil
}

// ExplainConj plans the conjunction on every shard and merges the
// per-shard summaries (see query.MergePlans).
func (read reads) ExplainConj(name string, qs []*ph.EncryptedQuery) (*query.PlanInfo, error) {
	resps, err := read.one(name, wire.ReadFlagExplain, qs, nil)
	if err != nil {
		return nil, err
	}
	plans := make([]*query.PlanInfo, len(resps))
	for i, resp := range resps {
		plans[i] = resp.Plan
	}
	return query.MergePlans(plans), nil
}

// Fetch downloads every shard's partition, in shard order.
func (co *Coordinator) Fetch(name string) ([]*ph.EncryptedTable, error) {
	out := make([]*ph.EncryptedTable, co.m.Count)
	err := co.scatter(func(i int, pool *client.ReadPool) error {
		return pool.Do(func(c *client.Conn) error {
			t, err := c.FetchAll(name)
			if err != nil {
				return err
			}
			out[i] = t
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Drop removes the table from every shard.
func (co *Coordinator) Drop(name string) error {
	return co.scatter(func(i int, pool *client.ReadPool) error {
		return pool.DoPrimary(func(c *client.Conn) error {
			return c.Drop(name)
		})
	})
}

// List scatters the directory listing and merges it by table name,
// summing per-shard tuple counts (every shard holds every table, so the
// names and schemes agree; the counts are the partition sizes).
func (co *Coordinator) List() ([]wire.TableInfo, error) {
	perShard := make([][]wire.TableInfo, co.m.Count)
	err := co.scatter(func(i int, pool *client.ReadPool) error {
		return pool.Do(func(c *client.Conn) error {
			infos, err := c.List()
			if err != nil {
				return err
			}
			perShard[i] = infos
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	merged := map[string]wire.TableInfo{}
	for _, infos := range perShard {
		for _, info := range infos {
			m, ok := merged[info.Name]
			if !ok {
				merged[info.Name] = info
				continue
			}
			m.Tuples += info.Tuples
			merged[info.Name] = m
		}
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]wire.TableInfo, len(names))
	for i, n := range names {
		out[i] = merged[n]
	}
	return out, nil
}
