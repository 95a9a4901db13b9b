package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/authindex"
	"repro/internal/client"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/shard"
)

// numClients is the closed-loop client count: one per vCPU of the box
// the bounds were calibrated on. Callers of client.DB wait for their
// reply, so the loop is closed.
const numClients = 2

type opKind uint8

const (
	opSelect opKind = iota
	opConj
	opMany
	opInsert
)

// opNames are the client.DB methods, which is also what the calls' root
// spans are called.
var opNames = [...]string{"client.DB.Select", "client.DB.SelectConj", "client.DB.SelectMany", "client.DB.Insert"}

func (k opKind) isRead() bool { return k != opInsert }

// op is one client.DB call, generated before the measured phase.
type op struct {
	kind   opKind
	eqs    []relation.Eq    // select: 1; conj: the conjuncts; many: one select each
	tuples []relation.Tuple // insert
	side   bool             // insert into the client's side table
}

// sample is what the closed loop keeps per call: it is both the latency
// sample and, in a traced phase, the root span.
type sample struct {
	kind       opKind
	column     string // reads: the column selected on (a conjunction's first)
	start, end int64  // ns on the run clock
	ok         bool
}

// callSpan is one client.Cluster call seen by the tracing decorator.
type callSpan struct {
	name       string
	start, end int64
}

// benchClient is one closed-loop caller. A client.DB is single-writer
// and not goroutine-safe, so each client owns its DBs (and, wherever it
// writes to a pinned table, the table).
type benchClient struct {
	id    int
	table string
	db    *client.DB
	model *model
	// side is the small unpinned table a read-only workload's thin write
	// stream goes to, so that inserts never turn the main table's cache
	// hits into deltas. nil where the workload writes to its main table.
	side      *client.DB
	sideTable string
	sideModel *model

	dial  *dialer            // the client's own connections: one, or one per shard
	coord *shard.Coordinator // the client's in-process coordinator; nil on a single server

	ops     []op
	next    int // ops[next:] have not run yet; phases continue the stream
	samples []sample
	calls   []callSpan
	failure error // first failed call, for the report
}

// env is one complete set-up of a workload: servers, tables, clients.
type env struct {
	w       *workloadSpec
	cfg     config
	dir     string
	tr      *tracer
	nodes   []*node
	clients []*benchClient
	clock   time.Time
}

// workloadSpec describes one traffic mix.
type workloadSpec struct {
	name string
	// callsPerSecond is the number of client.DB calls (both clients
	// together) this commit completes per second on the 2-vCPU box the
	// bounds were calibrated on. The measured phase runs
	// callsPerSecond × -seconds calls: a fixed amount of work, so that
	// byte, allocation and log counts repeat and the tables grow alike
	// on both sides of a comparison, lasting about -seconds here.
	callsPerSecond float64
	nodes          int
	// ownTable gives each client a main table of its own, which it
	// writes to and keeps its authenticated root of, so its reads are
	// verified. Otherwise both read one shared, unpinned table and write
	// to side tables.
	ownTable bool
	// warmBands salary bands are selected once in set-up, so the measured
	// phase starts in the workload's cache regime.
	warmBands int
	// plan fills c.ops with n calls.
	plan func(e *env, c *benchClient, g *gen, n int) error
	// ladderColumn is the column whose selects the ladder samples: the
	// workload's dominant kind of read, so that a median over the sample
	// is a median over like answers.
	ladderColumn string
	// directRead names the ladder row that is the direct Store call of
	// the kind this workload's reads are; server.self_us is the median
	// read round trip minus it.
	directRead string
}

var workloads = []*workloadSpec{
	{
		name: "cold_scan", callsPerSecond: 115, nodes: 1,
		plan:         planColdScan,
		ladderColumn: "name",
		directRead:   "storage.query_miss_ms",
	},
	{
		name: "hot_read", callsPerSecond: 1400, nodes: 1,
		warmBands:    salaryBands,
		plan:         planHotRead,
		ladderColumn: "salary",
		directRead:   "storage.query_hit_us",
	},
	{
		name: "append_mix", callsPerSecond: 1200, nodes: 1, ownTable: true,
		warmBands:    mixBands,
		plan:         planAppendMix,
		ladderColumn: "salary",
		directRead:   "storage.query_verified_us",
	},
	{
		name: "cluster_mix", callsPerSecond: 430, nodes: 2, ownTable: true,
		warmBands:    mixBands,
		plan:         planClusterMix,
		ladderColumn: "salary",
		directRead:   "storage.query_verified_us",
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Traffic shapes. Every workload carries writes, because BENCHMARK.json
// reports every end-to-end metric on every workload: the read-only mixes
// send one side-table insert per readsPerWrite reads.
const (
	coldReadsPerWrite = 4
	hotReadsPerWrite  = 8
	mixBands          = 64 // the bands the two writing workloads read
	manyWidth         = 4
)

func insertOp(g *gen, side bool) op {
	return op{kind: opInsert, tuples: g.tuples(insertBatch), side: side}
}

// coldKeys hands out names no other call will use: alternately one that
// is in the client's table and one that cannot be.
type coldKeys struct {
	present []string
	used    int
	stride  int
	absent  int
}

func newColdKeys(e *env, c *benchClient, sharedBy int) *coldKeys {
	names := singleNames(c.model.t)
	// One shuffle per table, not per client: clients reading one shared
	// table must not repeat each other's keys either, so client i takes
	// every sharedBy-th name of the same order from offset i.
	newGen(e.cfg.seed, 150).rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return &coldKeys{present: names, used: c.id % sharedBy, stride: sharedBy, absent: c.id}
}

func (k *coldKeys) next(i int) (relation.Eq, error) {
	if i%2 == 1 {
		k.absent += numClients
		return nameEq(absentName(k.absent)), nil
	}
	if k.used >= len(k.present) {
		return relation.Eq{}, fmt.Errorf("table has %d names of a single tuple, too few for this many cold selects", len(k.present))
	}
	name := k.present[k.used]
	k.used += k.stride
	return nameEq(name), nil
}

func planColdScan(e *env, c *benchClient, g *gen, n int) error {
	keys := newColdKeys(e, c, numClients)
	for i, reads := 0, 0; i < n; i++ {
		if i%(coldReadsPerWrite+1) == coldReadsPerWrite {
			c.ops = append(c.ops, insertOp(g, true))
			continue
		}
		eq, err := keys.next(reads)
		if err != nil {
			return err
		}
		reads++
		c.ops = append(c.ops, op{kind: opSelect, eqs: []relation.Eq{eq}})
	}
	return nil
}

func planHotRead(e *env, c *benchClient, g *gen, n int) error {
	band := g.zipfBands(salaryBands)
	for i := 0; i < n; i++ {
		if i%(hotReadsPerWrite+1) == hotReadsPerWrite {
			c.ops = append(c.ops, insertOp(g, true))
			continue
		}
		c.ops = append(c.ops, op{kind: opSelect, eqs: []relation.Eq{bandEq(band())}})
	}
	return nil
}

func planAppendMix(e *env, c *benchClient, g *gen, n int) error {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			c.ops = append(c.ops, insertOp(g, false))
			continue
		}
		c.ops = append(c.ops, op{kind: opSelect, eqs: []relation.Eq{bandEq(g.rng.Intn(mixBands))}})
	}
	return nil
}

// planClusterMix deals out 10-call cycles — 4 hot selects, 1 cold
// select, 2 conjunctions, 1 SelectMany, 2 inserts — each in its own
// seeded order: with one fixed order, two closed-loop clients fall into
// step, and whether one's inserts land on the other's cold scans becomes
// a property of the seed.
func planClusterMix(e *env, c *benchClient, g *gen, n int) error {
	const (
		hot = iota
		cold
		conj
		many
		insert
	)
	cycle := []int{hot, hot, hot, hot, cold, conj, conj, many, insert, insert}
	band := g.zipfBands(mixBands)
	keys := newColdKeys(e, c, 1)
	var order []int
	for i, colds := 0, 0; i < n; i++ {
		if i%len(cycle) == 0 {
			order = g.rng.Perm(len(cycle))
		}
		switch cycle[order[i%len(cycle)]] {
		case hot:
			c.ops = append(c.ops, op{kind: opSelect, eqs: []relation.Eq{bandEq(band())}})
		case cold:
			eq, err := keys.next(colds)
			if err != nil {
				return err
			}
			colds++
			c.ops = append(c.ops, op{kind: opSelect, eqs: []relation.Eq{eq}})
		case conj:
			c.ops = append(c.ops, op{kind: opConj, eqs: []relation.Eq{deptEq(int(g.dept.Uint64())), bandEq(band())}})
		case many:
			eqs := make([]relation.Eq, manyWidth)
			for k := range eqs {
				eqs[k] = bandEq(band())
			}
			c.ops = append(c.ops, op{kind: opMany, eqs: eqs})
		case insert:
			c.ops = append(c.ops, insertOp(g, false))
		}
	}
	return nil
}

// tracedCluster is the timing decorator round a client's coordinator.
type tracedCluster struct {
	client.Cluster
	tr *tracer
	c  *benchClient
}

func (t *tracedCluster) span(name string, start time.Time) {
	if t.tr.recording() {
		t.c.calls = append(t.c.calls, callSpan{name: name, start: t.tr.since(start), end: t.tr.since(time.Now())})
	}
}

func (t *tracedCluster) Insert(name string, tuples []ph.EncryptedTuple) ([]client.InsertAck, error) {
	defer t.span("shard.Insert", time.Now())
	return t.Cluster.Insert(name, tuples)
}

func (t *tracedCluster) Query(name string, q *ph.EncryptedQuery) ([]*ph.Result, error) {
	defer t.span("shard.Query", time.Now())
	return t.Cluster.Query(name, q)
}

func (t *tracedCluster) QueryBatch(name string, qs []*ph.EncryptedQuery) ([][]*ph.Result, error) {
	defer t.span("shard.QueryBatch", time.Now())
	return t.Cluster.QueryBatch(name, qs)
}

func (t *tracedCluster) QueryVerified(name string, q *ph.EncryptedQuery, check client.VerifyCheck) ([]*authindex.VerifiedResult, error) {
	defer t.span("shard.QueryVerified", time.Now())
	return t.Cluster.QueryVerified(name, q, check)
}

func (t *tracedCluster) QueryConj(name string, qs []*ph.EncryptedQuery, verified bool, check client.VerifyCheck) ([]*query.Response, error) {
	defer t.span("shard.QueryConj", time.Now())
	return t.Cluster.QueryConj(name, qs, verified, check)
}

// setUp builds one complete instance of the workload: servers up, tables
// encrypted, uploaded, durably stored and (where the workload verifies)
// pinned, caches warmed, every client's calls planned. Its duration is
// setup_s.
func setUp(w *workloadSpec, cfg config, tr *tracer) (*env, error) {
	e := &env{w: w, cfg: cfg, tr: tr, clock: time.Now()}
	if tr != nil {
		e.clock = tr.epoch // spans and samples must share one clock
	}
	ok := false
	defer func() {
		if !ok {
			e.tearDown()
		}
	}()
	var err error
	if e.dir, err = scratchDir(cfg.outDir); err != nil {
		return nil, err
	}
	for i := 0; i < w.nodes; i++ {
		n, err := startNode(e.dir, i, tr)
		if err != nil {
			return nil, err
		}
		e.nodes = append(e.nodes, n)
	}
	// Tables: one shared, or one per client.
	var shared *model
	for id := 0; id < numClients; id++ {
		c := &benchClient{id: id, table: "emp", dial: &dialer{tr: tr}}
		if w.ownTable {
			c.table = fmt.Sprintf("emp_%c", 'a'+id)
		}
		e.clients = append(e.clients, c)
		scheme, err := newScheme(cfg.seed)
		if err != nil {
			return nil, err
		}
		if w.nodes > 1 {
			// Each client embeds its own coordinator, as each client
			// process would: one connection per shard.
			pools := make([]*client.ReadPool, w.nodes)
			for i, n := range e.nodes {
				addr := n.addr
				pools[i] = client.NewReadPoolDial(func() (*client.Conn, error) { return c.dial.dial(addr) })
			}
			if c.coord, err = shard.NewCoordinator(shard.Map{Version: 1, Count: w.nodes}, pools); err != nil {
				return nil, err
			}
			var cl client.Cluster = c.coord
			if tr != nil {
				cl = &tracedCluster{Cluster: c.coord, tr: tr, c: c}
			}
			c.db = client.NewShardedDB(cl, scheme, c.table)
		} else {
			conn, err := c.dial.dial(e.nodes[0].addr)
			if err != nil {
				return nil, err
			}
			c.db = client.NewDB(conn, scheme, c.table)
			if !w.ownTable {
				c.sideTable = fmt.Sprintf("side_%c", 'a'+id)
				c.side = client.NewDB(conn, scheme, c.sideTable)
			}
		}

		if w.ownTable || id == 0 {
			t := tableOf(newGen(cfg.seed, 100+id).table(cfg.tuples))
			if err := c.db.CreateTable(t); err != nil {
				return nil, fmt.Errorf("creating %s: %w", c.table, err)
			}
			c.model = newModel(t)
			shared = c.model
		} else {
			c.model = shared
		}
		if !w.ownTable {
			c.db.PinRoot(nil, 0)
		}
		if c.side != nil {
			empty := tableOf(nil)
			if err := c.side.CreateTable(empty); err != nil {
				return nil, fmt.Errorf("creating %s: %w", c.sideTable, err)
			}
			c.side.PinRoot(nil, 0)
			c.sideModel = newModel(empty)
		}
	}

	// Warm-up and planning, both clients at once as in the measured phase.
	perClient := (cfg.calls(w) + numClients - 1) / numClients
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *benchClient) {
			defer wg.Done()
			errs[c.id] = e.prepare(c, perClient)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ok = true
	return e, nil
}

// prepare warms one client's share of the cache regime, checks the
// warm-up answers, and plans its calls.
func (e *env) prepare(c *benchClient, calls int) error {
	var warm []relation.Eq
	for band := 0; band < e.w.warmBands; band++ {
		// One shared table: the clients split the warm-up.
		if e.w.ownTable || band%numClients == c.id {
			warm = append(warm, bandEq(band))
		}
	}
	if len(warm) > 0 {
		got, err := c.db.SelectMany(warm)
		if err != nil {
			return fmt.Errorf("warming %s: %w", c.table, err)
		}
		for i, t := range got {
			if digestOf(t) != c.model.expect(warm[i:i+1]) {
				return fmt.Errorf("warming %s: answer to %v differs from the plaintext model", c.table, warm[i])
			}
		}
	}
	c.samples = make([]sample, 0, calls)
	return e.w.plan(e, c, newGen(e.cfg.seed, 200+c.id), calls)
}

// tick is one reading of the clocks a phase is sliced by.
type tick struct {
	t     int64   // ns on the run clock
	cpu   float64 // CPU seconds the process has used
	steal float64 // CPU seconds the hypervisor has withheld from the machine
}

func (e *env) tick() tick {
	return tick{t: int64(time.Since(e.clock)), cpu: cpuSeconds(), steal: stolenSeconds()}
}

// window is what one measured phase leaves behind besides the clients'
// samples: a tick at its start, one per period, and one at its end.
type window struct {
	period time.Duration
	ticks  []tick
}

// run executes the next n planned calls of every client, closed loop. A
// phase is a fixed amount of work, not of time; but on a box so starved
// that the phase is still running after twice the time planned for it,
// the clients stop where they are, so that a run always ends.
func (e *env) run(n int) window {
	var wg sync.WaitGroup
	planned := e.cfg.seconds * float64(n) / float64(max(1, len(e.clients[0].ops)))
	limit := time.Duration(2 * planned * float64(time.Second))
	begin := time.Now()
	w := window{period: slice(planned), ticks: []tick{e.tick()}}
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *benchClient) {
			defer wg.Done()
			stop := min(c.next+n, len(c.ops))
			for ; c.next < stop; c.next++ {
				if limit > 0 && time.Since(begin) > limit {
					return
				}
				c.samples = append(c.samples, c.call(e.clock, &c.ops[c.next]))
			}
		}(c)
	}
	finished, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		every := time.NewTicker(w.period)
		defer every.Stop()
		for {
			select {
			case <-every.C:
				w.ticks = append(w.ticks, e.tick())
			case <-finished:
				w.ticks = append(w.ticks, e.tick())
				return
			}
		}
	}()
	wg.Wait()
	close(finished)
	<-sampled
	return w
}

// call issues one client.DB call, times it, and checks the answer
// against the plaintext model (outside the timed interval).
func (c *benchClient) call(clock time.Time, o *op) sample {
	var (
		one  *relation.Table
		many []*relation.Table
		err  error
	)
	t0 := time.Now()
	switch o.kind {
	case opSelect:
		one, err = c.db.Select(o.eqs[0])
	case opConj:
		one, err = c.db.SelectConj(o.eqs)
	case opMany:
		many, err = c.db.SelectMany(o.eqs)
	case opInsert:
		if o.side {
			err = c.side.Insert(o.tuples...)
		} else {
			err = c.db.Insert(o.tuples...)
		}
	}
	t1 := time.Now()
	s := sample{kind: o.kind, start: int64(t0.Sub(clock)), end: int64(t1.Sub(clock))}
	if o.kind.isRead() {
		s.column = o.eqs[0].Column
	}
	switch {
	case err != nil:
	case o.kind == opInsert:
		// Acknowledged: from here on reads must see it.
		if o.side {
			c.sideModel.insert(o.tuples)
		} else {
			c.model.insert(o.tuples)
		}
		s.ok = true
	case o.kind == opMany:
		s.ok = len(many) == len(o.eqs)
		for i := 0; s.ok && i < len(many); i++ {
			s.ok = digestOf(many[i]) == c.model.expect(o.eqs[i:i+1])
		}
	default:
		s.ok = digestOf(one) == c.model.expect(o.eqs)
	}
	if !s.ok && c.failure == nil {
		if err == nil {
			err = fmt.Errorf("answer differs from the plaintext model")
		}
		c.failure = fmt.Errorf("client %d, %s %v: %w", c.id, opNames[o.kind], o.eqs, err)
	}
	return s
}

// storedTuples counts the plaintext tuples held by the servers.
func (e *env) storedTuples() int {
	seen := make(map[*model]bool)
	total := 0
	for _, c := range e.clients {
		for _, m := range []*model{c.model, c.sideModel} {
			if m != nil && !seen[m] {
				seen[m] = true
				total += m.t.Len()
			}
		}
	}
	return total
}

// audit runs after the measured phase, off the clock. It ties the
// oracle's index back to relation.Select on a sample of the queries the
// phase sent, and requires every table's full contents to equal its
// model: every acknowledged insert is readable.
func (e *env) audit() error {
	const perClient = 200
	for _, c := range e.clients {
		var reads []*op
		for i := range c.ops[:c.next] {
			if c.ops[i].kind.isRead() {
				reads = append(reads, &c.ops[i])
			}
		}
		for i := 0; i < perClient && i < len(reads); i++ {
			o := reads[i*len(reads)/min(perClient, len(reads))]
			eqs := [][]relation.Eq{o.eqs}
			if o.kind == opMany {
				eqs = eqs[:0]
				for k := range o.eqs {
					eqs = append(eqs, o.eqs[k:k+1])
				}
			}
			for _, q := range eqs {
				if err := c.model.audit(q); err != nil {
					return err
				}
			}
		}
		for _, tm := range []struct {
			db   *client.DB
			name string
			m    *model
		}{{c.db, c.table, c.model}, {c.side, c.sideTable, c.sideModel}} {
			if tm.db == nil {
				continue
			}
			all, err := tm.db.SelectAll()
			if err != nil {
				return fmt.Errorf("reading back %s: %w", tm.name, err)
			}
			if digestOf(all) != digestOf(tm.m.t) {
				return fmt.Errorf("%s holds %d tuples that differ from the model's %d", tm.name, all.Len(), tm.m.t.Len())
			}
		}
	}
	return nil
}

// tearDown stops everything the set-up started and removes its files.
func (e *env) tearDown() {
	for _, c := range e.clients {
		if c.coord != nil {
			_ = c.coord.Close() // sockets only
		}
		c.dial.closeAll()
	}
	for _, n := range e.nodes {
		if n.srv != nil {
			_ = n.stop() // the durability check has already had its say
			n.srv = nil
		}
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}
