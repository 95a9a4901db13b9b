// Package server implements Eve: the untrusted database service provider.
// It accepts client connections, stores encrypted tables, and evaluates
// encrypted queries with the store's one key-free scan, core.EvaluateSlab:
// it stores the paper's construction only. It never holds keys and never
// sees plaintext — its entire view is the view the paper's security
// games grant the adversary.
//
// The server is intentionally honest-but-curious infrastructure: it follows
// the protocol (the trust model of §2's "Alex trusts Eve to behave
// according to protocol"), while everything it learns is available for
// offline analysis via the storage log.
//
// There is one read command. CmdQuery carries a list of plans, each a
// conjunction of one or more encrypted selects (a single select is the
// one-conjunct plan, a batch is several plans), and is one
// storage.Store.Read: the plans run in order through the planner
// (internal/query) under one read-locked snapshot of the table, so a
// batch is σ of one table state, and the server returns only the tuples
// in each plan's intersection of per-conjunct position sets. This moves
// *where* the intersection happens, not what Eve learns: per-conjunct
// access patterns are her view either way.
//
// Beyond the paper, the same command serves the authenticated-index
// extension (internal/authindex) so clients need not extend that trust:
// with wire.ReadFlagVerified every plan is answered with (result,
// multiproof, root, leaf count, version) cut from the one snapshot that
// evaluated the request — the proof always verifies against the root it
// travels with, so a mutation racing the request can never make an
// honest answer look tampered. wire.ReadFlagExplain returns the plans instead
// of running them. Every command has one answer shape: CmdInsert is
// always acked with its placement (RespInserted: base, count, version),
// whether or not the client keeps a root to advance with it.
//
// Operationally the server takes Options for robustness under hostile
// or flaky peers — per-connection idle and write deadlines and a
// connection cap — and for running as a read replica: ReadOnly rejects
// mutations, CmdShipLog serves the store's write-ahead log to followers
// (internal/replica) so read capacity scales out without adding trusted
// parties, CmdShipSnapshot serves them chunked state snapshots for
// O(state) bootstrap, and Ready lets a follower refuse every request
// while it is catching up rather than answer from a half-installed
// store.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/wire"
)

// Options configure a server's robustness limits and its role. The zero
// value preserves the historical behaviour: a writable server with no
// deadlines and no connection cap.
type Options struct {
	// ReadOnly rejects every mutating command (store, insert, drop) with
	// an error naming the primary as the write path. Replicas serve with
	// this set: their state is the shipped log, and a write accepted
	// locally would silently fork it.
	ReadOnly bool
	// IdleTimeout bounds how long ServeConn waits for the next request
	// frame (and for the rest of a half-received one). A peer that goes
	// quiet — a wedged client, a half-open TCP connection — is reaped
	// instead of pinning a goroutine and a connection slot forever.
	// Zero means wait forever.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response frame. Zero means no limit.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections; past it, Serve
	// closes new connections immediately (the client sees EOF and can
	// retry elsewhere — failing fast beats queueing behind a full house).
	// Zero means no cap.
	MaxConns int
	// Ready, when set, gates every command: while it reports false the
	// server answers each request with an error instead of serving it.
	// Replicas set it to their follower's catch-up signal so a store
	// that is mid-reset or mid-snapshot-install refuses loudly — an
	// unverified read served from a half-empty store would otherwise
	// succeed with near-empty answers, which is worse than any error.
	// The client treats the refusal like any replica failure: quarantine
	// and fail over. Must be safe for concurrent use; nil means always
	// ready.
	Ready func() bool
}

// Backend executes one decoded command frame and builds the response
// frame. The canonical backend is the store-backed command set
// (storeBackend, what New installs); a shard coordinator
// (internal/shard) takes the same commands and answers each in its one
// per-shard envelope, so phserver can serve a scatter-gather tier
// through the identical connection machinery — deadlines, caps, the
// Ready gate — without the transport knowing which it fronts.
// HandleFrame must be safe for concurrent use; scratch is a zero-length
// reusable buffer the response payload may build on.
type Backend interface {
	HandleFrame(f wire.Frame, scratch []byte) (wire.Frame, error)
	// Sync flushes whatever durable state the backend owns; Server.Close
	// calls it so a graceful shutdown is durable under every sync policy.
	Sync() error
}

// Server is one service-provider instance.
type Server struct {
	backend Backend
	logger  *log.Logger
	opts    Options

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// New creates a server over the given store. logger may be nil to discard
// diagnostics.
func New(store *storage.Store, logger *log.Logger) *Server {
	return NewWithOptions(store, logger, Options{})
}

// NewWithOptions creates a server over the given store with explicit
// robustness options. logger may be nil to discard diagnostics.
func NewWithOptions(store *storage.Store, logger *log.Logger, opts Options) *Server {
	return NewProxy(&storeBackend{store: store}, logger, opts)
}

// NewProxy creates a server over an arbitrary backend — a shard
// coordinator, a test double — with explicit robustness options. logger
// may be nil to discard diagnostics.
func NewProxy(backend Backend, logger *log.Logger, opts Options) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Server{backend: backend, logger: logger, opts: opts, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on l until Close is called. It blocks.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("server: already closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			s.mu.Unlock()
			s.logger.Printf("server: connection %s refused: at MaxConns=%d", conn.RemoteAddr(), s.opts.MaxConns)
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// Conns returns the number of connections Serve is serving.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops accepting, closes all connections, waits for handlers and
// syncs the store's log: a graceful server shutdown is durable even
// under the interval/never sync policies and even if the owner never
// calls Store.Close (which also syncs).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	if serr := s.backend.Sync(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// ServeConn handles one client connection until EOF. Exported so tests and
// in-memory transports (net.Pipe) can drive a connection without a
// listener.
func (s *Server) ServeConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	c := newServerConn(conn)
	defer func() {
		wire.PutBuf(c.read)
		wire.PutBuf(c.enc)
	}()
	for s.serveFrame(c) {
	}
}

// serverConn is one connection's buffered reader and writer and the two
// buffers it reuses — one for the inbound frame payload, one for
// encoding the response — so the per-frame hot path stops allocating.
// Decoded objects copy what they keep (wire.Buffer.Bytes copies), so
// recycling the payload after the response is written is safe.
type serverConn struct {
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	read, enc []byte
}

// newServerConn wraps conn with its reader, writer and pooled buffers.
func newServerConn(conn net.Conn) *serverConn {
	return &serverConn{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), read: wire.GetBuf(), enc: wire.GetBuf()}
}

// serveFrame reads one frame from c, answers it and keeps c's buffers
// for the next; it reports whether the connection goes on.
func (s *Server) serveFrame(c *serverConn) bool {
	// The idle deadline covers the wait for the next frame AND the
	// frame's own bytes: a peer that wedges mid-frame is as stuck as one
	// that never speaks, and both must release this goroutine.
	if s.opts.IdleTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	f, buf, err := wire.ReadFrameReuse(c.r, c.read)
	c.read = buf
	if err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.logger.Printf("server: connection %s: %v", c.conn.RemoteAddr(), err)
		}
		return false
	}
	resp := s.dispatch(f, c.enc[:0])
	if s.opts.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
	}
	// WriteFrame flushes w: the response is on the wire when it returns.
	if err := wire.WriteFrame(c.w, resp); err != nil {
		s.logger.Printf("server: connection %s: %v", c.conn.RemoteAddr(), err)
		return false
	}
	// A table upload grows the read buffer to megabytes: drop it past
	// the bound a client.Conn keeps, rather than pin it for the
	// connection's life and pool it when the connection closes.
	c.read = wire.KeepBuf(c.read)
	// Keep a grown encode buffer for the next response, but never one
	// past the pool threshold: a single huge CmdFetchAll must not pin
	// tens of megabytes for the rest of the connection's life.
	if cap(resp.Payload) > cap(c.enc) && cap(resp.Payload) <= wire.MaxPooledBuf {
		c.enc = resp.Payload
	}
	return true
}

// dispatch applies the server-side policy gates — the Ready gate and
// the read-only mutation rejection — then delegates the command to the
// backend and turns its error, if any, into a RespError frame. scratch
// is a zero-length reusable buffer response payloads are appended onto;
// the returned frame's payload may alias it (or a grown successor).
func (s *Server) dispatch(f wire.Frame, scratch []byte) wire.Frame {
	resp, err := s.handle(f, scratch)
	if err != nil {
		return wire.Frame{Type: wire.RespError, Payload: wire.AppendString(scratch[:0], err.Error())}
	}
	return resp
}

// handle gates one command frame, then hands it to the backend.
func (s *Server) handle(f wire.Frame, scratch []byte) (wire.Frame, error) {
	if s.opts.Ready != nil && !s.opts.Ready() {
		return wire.Frame{}, fmt.Errorf("server: replica is catching up, not serving yet")
	}
	if s.opts.ReadOnly {
		switch f.Type {
		case wire.CmdStore, wire.CmdInsert, wire.CmdDrop:
			return wire.Frame{}, fmt.Errorf("server: read-only replica: mutations go to the primary")
		}
	}
	return s.backend.HandleFrame(f, scratch)
}
