package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/storage"
)

// tracer collects spans from the three seams the harness can reach from
// outside the program: the client connection (round trips), the WAL file
// handle (writes and fsyncs) and the client.Cluster interface (scatter
// calls). It is nil in end-to-end runs; in a traced invocation the
// wrappers exist for the whole process and record only while on is set,
// so the untraced and traced phases of that invocation run the same
// code apart from the recording itself.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu  sync.Mutex
	log []logSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) recording() bool { return tr != nil && tr.on.Load() }

// since is the trace clock: nanoseconds since the tracer was made.
func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }

// logSpan is one Write or Sync on a node's WAL handle. Its parent — the
// request whose group commit issued it — is not visible from outside
// storage, so log spans are recorded parentless.
type logSpan struct {
	node       int
	sync       bool
	start, end int64
	bytes      int
}

// meteredLog is the storage.Options.WrapLog seam used two ways. Always:
// it tracks how many log bytes have been written and how many of those
// a completed fsync covers, so the durability check can rebuild a store
// from only the bytes that were flushed when the last write was
// acknowledged. While tracing: it times every Write and Sync.
type meteredLog struct {
	storage.LogFile
	tr   *tracer
	node int

	written atomic.Int64
	synced  atomic.Int64
}

func (l *meteredLog) Write(p []byte) (int, error) {
	if !l.tr.recording() {
		n, err := l.LogFile.Write(p)
		l.written.Add(int64(n))
		return n, err
	}
	t0 := time.Now()
	n, err := l.LogFile.Write(p)
	l.written.Add(int64(n))
	l.record(logSpan{node: l.node, start: l.tr.since(t0), end: l.tr.since(time.Now()), bytes: n})
	return n, err
}

// Sync marks as flushed the bytes that were written before it began.
func (l *meteredLog) Sync() error {
	covered := l.written.Load()
	t0 := time.Now()
	err := l.LogFile.Sync()
	if err == nil && covered > l.synced.Load() {
		l.synced.Store(covered)
	}
	if l.tr.recording() {
		l.record(logSpan{node: l.node, sync: true, start: l.tr.since(t0), end: l.tr.since(time.Now())})
	}
	return err
}

func (l *meteredLog) Truncate(size int64) error {
	err := l.LogFile.Truncate(size)
	if err == nil {
		l.written.Store(size)
		if l.synced.Load() > size {
			l.synced.Store(size)
		}
	}
	return err
}

func (l *meteredLog) record(s logSpan) {
	l.tr.mu.Lock()
	l.tr.log = append(l.tr.log, s)
	l.tr.mu.Unlock()
}

// node is one phserver in-process: a durable store (SyncAlways, the
// phserver default), the stock server over it, a loopback TCP listener.
type node struct {
	id     int
	path   string
	log    *meteredLog
	store  *storage.Store
	srv    *server.Server
	addr   string
	served chan error
}

func startNode(dir string, id int, tr *tracer) (*node, error) {
	n := &node{id: id, path: filepath.Join(dir, fmt.Sprintf("node%d.wal", id)), served: make(chan error, 1)}
	st, err := storage.OpenOptions(n.path, storage.Options{
		Sync: storage.SyncAlways,
		WrapLog: func(f storage.LogFile) storage.LogFile {
			n.log = &meteredLog{LogFile: f, tr: tr, node: id}
			return n.log
		},
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	n.store, n.addr = st, l.Addr().String()
	n.srv = server.New(st, nil)
	go func() { n.served <- n.srv.Serve(l) }()
	return n, nil
}

// stop closes the server (waiting for its handlers and its accept loop)
// and then the store, so the WAL file is complete and released.
func (n *node) stop() error {
	err := n.srv.Close()
	if serr := <-n.served; err == nil {
		err = serr
	}
	if cerr := n.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// trip is one request/response exchange seen from the client socket:
// first request byte written → last response byte read.
type trip struct{ start, end int64 }

// meterConn is the counting net.Conn behind every client connection
// (client.DialConfig.DialFunc / client.NewConn seam). A client.Conn is
// used by one goroutine at a time — its DB's, or whoever holds its
// ReadPool's mutex — so the fields need no lock of their own.
type meterConn struct {
	net.Conn
	tr *tracer

	sent, recv int64 // bytes
	trips      int64
	writing    bool // the last I/O was a Write: the request is still going out
	spans      []trip
}

func (c *meterConn) Write(p []byte) (int, error) {
	if !c.writing {
		c.writing = true
		c.trips++
		if c.tr.recording() {
			c.spans = append(c.spans, trip{start: c.tr.since(time.Now())})
		}
	}
	n, err := c.Conn.Write(p)
	c.sent += int64(n)
	return n, err
}

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv += int64(n)
	c.writing = false
	if n > 0 && c.tr.recording() && len(c.spans) > 0 {
		c.spans[len(c.spans)-1].end = c.tr.since(time.Now())
	}
	return n, err
}

// dialer opens one client's metered connections and remembers them, so
// the harness can total their counters, read their spans and close them.
type dialer struct {
	tr *tracer

	mu    sync.Mutex
	conns []*meterConn
}

func (d *dialer) dial(addr string) (*client.Conn, error) {
	return client.DialWithConfig(addr, client.DialConfig{
		Attempts: 1,
		DialFunc: func(a string) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", a, 5*time.Second)
			if err != nil {
				return nil, err
			}
			mc := &meterConn{Conn: nc, tr: d.tr}
			d.mu.Lock()
			d.conns = append(d.conns, mc)
			d.mu.Unlock()
			return mc, nil
		},
	})
}

// wireTotals sums the connection counters. Call only while the client is
// idle.
func (d *dialer) wireTotals() (sent, recv, trips int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		sent += c.sent
		recv += c.recv
		trips += c.trips
	}
	return sent, recv, trips
}

// spans returns every round trip the client's connections recorded, in
// start order (behind a coordinator the shards' trips overlap).
func (d *dialer) spans() []trip {
	d.mu.Lock()
	defer d.mu.Unlock()
	var all []trip
	for _, c := range d.conns {
		all = append(all, c.spans...)
	}
	slices.SortFunc(all, func(a, b trip) int { return int(a.start - b.start) })
	return all
}

func (d *dialer) closeAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		_ = c.Close() // read side of a benchmark socket: nothing to lose
	}
}

// logBytes totals the nodes' WAL sizes.
func logBytes(nodes []*node) (int64, error) {
	var total int64
	for _, n := range nodes {
		sz, err := n.store.LogSize()
		if err != nil {
			return 0, err
		}
		total += sz
	}
	return total, nil
}

// scratchDir makes a fresh directory for one set-up's WAL files under
// root (the benchmark's out/ directory: the contract keeps every write
// inside the checkout).
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "wal-")
}
