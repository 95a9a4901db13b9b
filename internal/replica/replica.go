// Package replica implements the follower side of WAL shipping: a read
// replica that tails a primary's write-ahead log over the wire
// (CmdShipLog), replays the records into its own store, and serves
// reads from it — typically behind a read-only server
// (server.Options.ReadOnly), with mutations rejected locally.
//
// The follower's position is a cursor (epoch, seq): epoch names the
// primary's current log file, seq counts records applied from it. The
// primary answers every poll with (epoch, start, head) bookkeeping;
// whenever epoch or start disagrees with the cursor — the primary
// compacted its log, restarted into a fresh one, or never saw this
// follower — the follower's history is gone and it must re-bootstrap.
//
// Bootstrap fetches a checksummed state snapshot in resumable chunks
// (CmdShipSnapshot) and installs it atomically: O(state) work however
// long the primary's log is, and the follower keeps serving its
// previous consistent state until the install swaps — there is no
// window of emptiness. A follower that has never caught up has no such
// state: it reports itself not Ready, which a fronting server surfaces
// as refusals so no client reads an empty or far-behind store.
//
// Followers may run durable (Options.Store over a WAL-backed store):
// applied records land in the local log, whose header's ship base
// records which primary cursor that log corresponds to, so a
// restarted follower resumes tailing from where it stopped instead of
// re-bootstrapping.
//
// Trust is the interesting part, and there is deliberately nothing
// here: the follower applies whatever the primary ships, and makes no
// claim of integrity. The client's pinned authenticated root does not
// care which machine answered — replayed records produce bit-identical
// tuple bytes, hence identical Merkle leaves, hence the primary's root;
// a snapshot-installed table is those same bytes arriving in bulk. A
// follower that is stale, corrupted, or lying produces a root mismatch
// at the client, which quarantines it and fails over (see
// internal/client's withRead). Replication adds read capacity, never
// trusted parties.
package replica

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/storage"
)

// Options tunes a Follower. The zero value gets sane defaults.
type Options struct {
	// PollInterval is the pause between polls once caught up (and after
	// errors). <=0 selects 100ms. While behind, the follower polls
	// continuously.
	PollInterval time.Duration
	// MaxBytes bounds one shipped chunk (log records or snapshot
	// bytes). <=0 selects 1MiB; the primary clamps hostile values
	// regardless.
	MaxBytes uint32
	// Store, when set, is the store the follower replays into — pass a
	// WAL-backed store (storage.OpenOptions) for a durable follower
	// that resumes its cursor across restarts. Nil selects a fresh
	// in-memory store. The store must not be mutated by anyone but the
	// follower.
	Store *storage.Store
	// Logf, when set, receives progress and error lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 100 * time.Millisecond
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 1 << 20
	}
	return o
}

// Status is a snapshot of a follower's replication position.
type Status struct {
	// Epoch and Applied are the cursor: which primary log file the
	// follower is on and how many of its records it has applied.
	Epoch   uint64
	Applied uint64
	// Head is the primary's record count as of the last successful poll.
	Head uint64
	// CaughtUp reports whether the last poll found nothing to ship.
	CaughtUp bool
	// Ready reports whether the follower's store is a consistent cut of
	// the primary's history, safe to serve reads from (possibly stale).
	// It is false until the follower first catches up (or resumes a
	// persisted cursor); a later re-bootstrap keeps the previous state
	// serving, so Ready stays true across it.
	Ready bool
	// Resets counts re-bootstraps (primary compactions/restarts, apply
	// failures). A busy primary makes this grow occasionally; growth on
	// every poll means the follower cannot hold a cursor.
	Resets uint64
	// Snapshots counts snapshot installs (the O(state) bootstrap path).
	Snapshots uint64
	// RecordsApplied counts log records applied through shipping since
	// this follower started (not counting snapshot contents).
	RecordsApplied uint64
	// SnapshotBytes counts snapshot bytes fetched since this follower
	// started, including transfers that were later voided.
	SnapshotBytes uint64
	// LastErr is the most recent poll error, nil when the last poll
	// succeeded.
	LastErr error
}

// Follower tails a primary and keeps a store in sync with its log.
// Create with New, serve reads from Store(), stop with Close.
type Follower struct {
	store *storage.Store
	dial  func() (*client.Conn, error)
	opts  Options

	mu       sync.Mutex
	epoch    uint64
	seq      uint64
	head     uint64
	caughtUp bool
	ready    bool
	resets   uint64
	lastErr  error

	// Bootstrap state. bootstrapping is set when the cursor was
	// invalidated and a snapshot fetch is in progress (or pending);
	// snapEpoch/snapSeq identify the snapshot mid-transfer and snapBuf
	// accumulates its bytes — kept across redials, voided when the
	// primary answers under a different identity.
	bootstrapping bool
	snapEpoch     uint64
	snapSeq       uint64
	snapBuf       []byte

	snapshots   uint64
	appliedRecs uint64
	snapBytes   uint64

	closeOnce sync.Once
	closed    chan struct{}
	done      chan struct{}
}

// New starts a follower polling the primary reached by dial. The dial
// function is invoked whenever the follower needs a (re)connection —
// pair it with client.DialWithConfig for bounded retry.
//
// With Options.Store set to a durable store whose log header holds a
// ship base (see storage.ResumeCursor), the follower adopts the resumed
// cursor and is Ready immediately: its state is a consistent cut, just
// possibly stale. Otherwise it starts at the zero cursor and bootstraps.
func New(dial func() (*client.Conn, error), opts Options) *Follower {
	opts = opts.withDefaults()
	st := opts.Store
	if st == nil {
		st = storage.NewMemory()
	}
	f := &Follower{
		store:  st,
		dial:   dial,
		opts:   opts,
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	if epoch, seq, ok := st.ResumeCursor(); ok {
		f.epoch, f.seq = epoch, seq
		f.ready = true
	}
	go f.run()
	return f
}

// Store exposes the follower's replayed store, for serving reads (wrap
// it in a read-only server; the follower itself never writes except by
// replay).
func (f *Follower) Store() *storage.Store { return f.store }

// Ready reports whether the follower is serving a consistent cut of the
// primary's history. Wire it into server.Options.Ready so a fronting
// read-only server refuses requests — and the client quarantines and
// fails over — instead of answering from a store that has not caught up
// yet.
func (f *Follower) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ready
}

// Status returns the follower's current replication position.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Status{
		Epoch: f.epoch, Applied: f.seq, Head: f.head,
		CaughtUp: f.caughtUp, Ready: f.ready, Resets: f.resets,
		Snapshots: f.snapshots, RecordsApplied: f.appliedRecs, SnapshotBytes: f.snapBytes,
		LastErr: f.lastErr,
	}
}

// Close stops the poll loop and waits for it to exit.
func (f *Follower) Close() {
	f.closeOnce.Do(func() { close(f.closed) })
	<-f.done
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// sleep pauses for the poll interval, returning false when the follower
// was closed meanwhile.
func (f *Follower) sleep() bool {
	select {
	case <-f.closed:
		return false
	case <-time.After(f.opts.PollInterval):
		return true
	}
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.caughtUp = false
	f.mu.Unlock()
}

// run is the poll loop: connect, ship from the cursor (or fetch the
// next snapshot chunk while bootstrapping), apply, repeat —
// continuously while behind, at PollInterval once level or after any
// error. Transport errors drop the connection and redial; the cursor
// and any partial snapshot transfer survive, so a restarted primary
// (same log) resumes where shipping stopped, a mid-transfer partition
// resumes the transfer, and a rotated primary re-bootstraps the follower
// through the epoch check.
func (f *Follower) run() {
	defer close(f.done)
	var conn *client.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		select {
		case <-f.closed:
			return
		default:
		}
		if conn == nil {
			c, err := f.dial()
			if err != nil {
				f.setErr(fmt.Errorf("replica: dialing primary: %w", err))
				if !f.sleep() {
					return
				}
				continue
			}
			conn = c
		}
		var behind bool
		var err error
		if f.needsBootstrap() {
			behind, err = f.bootstrap(conn)
		} else {
			behind, err = f.poll(conn)
		}
		if err != nil {
			f.setErr(err)
			f.logf("replica: %v", err)
			// A remote error is the primary answering: redialing would
			// change nothing.
			if !client.IsRemote(err) {
				conn.Close()
				conn = nil
			}
		}
		if err != nil || !behind {
			if !f.sleep() {
				return
			}
		}
	}
}

// needsBootstrap reports whether the next round should fetch a snapshot
// chunk instead of polling the log: an explicit bootstrap is pending,
// or the cursor is virgin.
func (f *Follower) needsBootstrap() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bootstrapping || (f.epoch == 0 && f.seq == 0)
}

// poll runs one ShipLog round and folds the answer into the store.
func (f *Follower) poll(conn *client.Conn) (behind bool, err error) {
	f.mu.Lock()
	epoch, seq := f.epoch, f.seq
	f.mu.Unlock()
	ch, err := conn.ShipLog(epoch, seq, f.opts.MaxBytes)
	if err != nil {
		return false, fmt.Errorf("replica: shipping from (%d,%d): %w", epoch, seq, err)
	}
	return f.apply(epoch, seq, ch)
}

// bootstrap runs one CmdShipSnapshot round: fetch the next chunk of the
// snapshot mid-transfer (or the first chunk of a fresh one), and when
// the transfer completes, verify and install it and resume tailing from
// its embedded cursor. The store keeps serving its previous state until
// the install atomically swaps, so Ready is untouched here.
func (f *Follower) bootstrap(conn *client.Conn) (behind bool, err error) {
	f.mu.Lock()
	f.bootstrapping = true
	e, q, off := f.snapEpoch, f.snapSeq, uint64(len(f.snapBuf))
	f.mu.Unlock()
	ch, err := conn.ShipSnapshot(e, q, off, f.opts.MaxBytes)
	if err != nil {
		return false, fmt.Errorf("replica: fetching snapshot chunk at %d: %w", off, err)
	}
	f.mu.Lock()
	f.snapBytes += uint64(len(ch.Data))
	if ch.Total > storage.MaxSnapshotBytes {
		f.snapBuf = nil
		f.mu.Unlock()
		return false, fmt.Errorf("replica: primary offers a %d-byte snapshot, above the %d cap", ch.Total, storage.MaxSnapshotBytes)
	}
	if ch.Epoch != e || ch.Seq != q || ch.Offset != off {
		// A different snapshot (or an offset the primary would not
		// serve): everything accumulated is void. Adopt the new identity
		// only from its origin; otherwise retry from scratch.
		f.snapBuf = nil
		f.snapEpoch, f.snapSeq = ch.Epoch, ch.Seq
		if ch.Offset != 0 {
			f.mu.Unlock()
			return true, nil
		}
		if e != 0 || q != 0 {
			f.logf("replica: snapshot (%d,%d) superseded by (%d,%d), restarting transfer", e, q, ch.Epoch, ch.Seq)
		}
	}
	f.snapBuf = append(f.snapBuf, ch.Data...)
	done := uint64(len(f.snapBuf)) == ch.Total
	var buf []byte
	if done {
		buf, f.snapBuf = f.snapBuf, nil
	}
	f.mu.Unlock()
	if !done {
		return true, nil
	}
	cur, ierr := f.store.InstallSnapshot(buf)
	if ierr != nil {
		// The store kept its previous state; void the transfer and
		// fetch a fresh snapshot next round.
		f.mu.Lock()
		f.snapEpoch, f.snapSeq = 0, 0
		f.mu.Unlock()
		return true, fmt.Errorf("replica: installing %d-byte snapshot (%d,%d): %w", len(buf), ch.Epoch, ch.Seq, ierr)
	}
	f.logf("replica: installed snapshot (%d,%d), %d bytes", cur.Epoch, cur.Seq, len(buf))
	f.mu.Lock()
	f.bootstrapping = false
	f.snapEpoch, f.snapSeq = 0, 0
	f.epoch, f.seq = cur.Epoch, cur.Seq
	f.snapshots++
	f.caughtUp = false
	f.lastErr = nil
	f.mu.Unlock()
	return true, nil
}

// apply folds one shipped chunk into the store. It returns whether the
// follower is still behind (poll again immediately). A chunk whose
// epoch or start disagrees with the cursor means the follower's history
// is gone on the primary: the follower flags a snapshot bootstrap and
// keeps its consistent state serving until the install. A record that
// fails to apply re-bootstraps too — a partially applied log is the one
// state shipping must never hold.
func (f *Follower) apply(epoch, seq uint64, ch *client.LogChunk) (behind bool, err error) {
	if ch.Epoch != epoch || ch.Start != seq {
		f.invalidate()
		if ch.Start != 0 {
			return true, fmt.Errorf("replica: primary answered from (%d,%d) to cursor (%d,%d); re-bootstrapping",
				ch.Epoch, ch.Start, epoch, seq)
		}
		f.logf("replica: cursor (%d,%d) rotated away (primary at epoch %d); snapshot bootstrap", epoch, seq, ch.Epoch)
		return true, nil
	}
	applied, aerr := f.store.ApplyShipped(ch.Log)
	seq += uint64(applied)
	f.mu.Lock()
	f.appliedRecs += uint64(applied)
	f.mu.Unlock()
	if aerr != nil {
		f.invalidate()
		return true, fmt.Errorf("replica: applying chunk (%d,%d): %w", ch.Epoch, ch.Start, aerr)
	}
	f.mu.Lock()
	f.epoch, f.seq, f.head = epoch, seq, ch.Head
	f.caughtUp = seq >= ch.Head
	if f.caughtUp {
		f.ready = true
	}
	f.lastErr = nil
	behind = !f.caughtUp
	f.mu.Unlock()
	return behind, nil
}

// invalidate voids the cursor and flags a snapshot bootstrap; the store
// is untouched (it keeps serving the old consistent cut until the
// install swaps it).
func (f *Follower) invalidate() {
	f.mu.Lock()
	f.epoch, f.seq, f.head = 0, 0, 0
	f.caughtUp = false
	f.bootstrapping = true
	f.snapEpoch, f.snapSeq, f.snapBuf = 0, 0, nil
	f.resets++
	f.mu.Unlock()
}
