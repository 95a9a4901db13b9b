package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// SyncPolicy selects when acknowledged mutations reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs the log before acknowledging a mutation.
	// Concurrent writers share one fsync through group commit: writers
	// stage their records in the log writer's buffer and a single leader
	// flushes and syncs the whole batch, so N concurrent appends pay ~1
	// fsync, not N. A crash after an acknowledgement loses nothing.
	SyncAlways SyncPolicy = iota
	// SyncInterval acknowledges as soon as the record reaches the OS
	// (write(2)) and fsyncs in the background every Options.SyncInterval.
	// A crash loses at most the last interval of acknowledged mutations.
	SyncInterval
	// SyncNever acknowledges after write(2) and never fsyncs during
	// operation (only on Close and Compact). Crash durability is
	// whatever the OS happened to flush.
	SyncNever
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the flag spelling of a sync policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("storage: unknown sync policy %q (want always, interval or never)", s)
	}
}

// DefaultSyncInterval is the background fsync period under SyncInterval
// when Options.SyncInterval is zero.
const DefaultSyncInterval = 100 * time.Millisecond

// Options configure a durable store.
type Options struct {
	// Sync selects the log sync policy. The zero value is SyncAlways:
	// a store that calls itself durable defaults to being durable.
	Sync SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval;
	// zero selects DefaultSyncInterval. Ignored by the other policies.
	SyncInterval time.Duration
	// WrapLog, when set, wraps every append handle the store opens over
	// its log — the one opened at OpenOptions and every replacement
	// installed by Compact or InstallSnapshot. It is the fault
	// seam: internal/fault's File threads ENOSPC, fsync failures, torn
	// writes and crash points through it. Replay and shipping read the
	// log through separate read-only handles that are not wrapped.
	WrapLog func(LogFile) LogFile
}

// LogStats counts log writer activity, for observability and for
// verifying group commit actually shares fsyncs.
type LogStats struct {
	// Records is the number of records accepted by the log.
	Records uint64
	// Syncs is the number of fsyncs issued.
	Syncs uint64
}

// Log record format v1:
//
//	magic:0xD1 | op:u8 | len:u32 | crc32c:u32 | payload
//
// The CRC (Castagnoli) covers op, len and payload, so a corrupt length
// or flipped payload byte is detected instead of silently misapplying
// the record or truncating everything after it.
const (
	walMagic    = 0xD1
	walV1HdrLen = 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// readWALRecord reads the next record of a log byte stream that holds
// left more bytes and appends it to dst — header and payload, exactly as
// the stream holds them — returning the grown slice. The record is
// out[len(dst):]: its op is byte 1 and its payload starts at
// walV1HdrLen. It is the one place a record is parsed: replay, log
// shipping, a snapshot's body and a shipped chunk all go through it, so
// they can differ in what they do with a record but never in what they
// take a record to be. ok is false at the end of the log: a clean EOF,
// or the first record the format cannot vouch for — a byte that is not
// walMagic at a record boundary, a torn header or payload (crash
// mid-append, or a concurrent append's half-written tail), a length
// above the frame cap or beyond the bytes left, or a CRC that disowns
// its bytes. A length is checked against left before anything is
// allocated, so a torn length field costs nothing.
func readWALRecord(r io.Reader, left int64, dst []byte) (out []byte, ok bool) {
	var hdr [walV1HdrLen]byte
	if left < walV1HdrLen {
		return dst, false
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil || hdr[0] != walMagic {
		return dst, false
	}
	n := int(binary.BigEndian.Uint32(hdr[2:6]))
	if n > wire.MaxFrameSize || int64(n) > left-walV1HdrLen {
		return dst, false
	}
	out = append(slices.Grow(dst, walV1HdrLen+n), hdr[:]...)
	payload := out[len(out) : len(out)+n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return dst, false
	}
	crc := crc32.Update(0, castagnoli, hdr[1:6])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.BigEndian.Uint32(hdr[6:10]) {
		return dst, false
	}
	return out[:len(out)+n], true
}

// eachWALRecord calls fn on every record of log, which must be whole
// records and nothing else — a snapshot's body, a shipped chunk. The
// payload is only valid until fn returns. It returns how many records
// fn accepted; a byte the reader cannot vouch for is an error, not an
// end.
func eachWALRecord(log []byte, fn func(op byte, payload []byte) error) (n int, err error) {
	r := bytes.NewReader(log)
	for rec := []byte(nil); r.Len() > 0; n++ {
		off, ok := len(log)-r.Len(), false
		if rec, ok = readWALRecord(r, int64(r.Len()), rec[:0]); !ok {
			return n, fmt.Errorf("no whole record at byte %d of %d", off, len(log))
		}
		if err := fn(rec[1], rec[walV1HdrLen:]); err != nil {
			return n, fmt.Errorf("record %d: %w", n, err)
		}
	}
	return n, nil
}

// appendWALRecord appends one v1 record to dst and returns the grown
// slice. Staging into a reused buffer is the allocation-free replacement
// for the old per-record append(hdr, payload...) copy.
func appendWALRecord(dst []byte, op byte, payload []byte) []byte {
	var hdr [walV1HdrLen]byte
	hdr[0] = walMagic
	hdr[1] = op
	binary.BigEndian.PutUint32(hdr[2:6], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[1:6])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.BigEndian.PutUint32(hdr[6:10], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// LogFile is the slice of *os.File the log writer needs. Tests — and
// the fault-injection harness (internal/fault), through Options.WrapLog
// — substitute instrumented implementations to pin the sync ordering,
// the fsync sharing of group commit, and the store's behaviour under
// disk faults without relying on disk timing.
type LogFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// errLogClosed reports a mutation against a closed store's log.
var errLogClosed = errors.New("storage: log closed")

// walWriter owns all writes to the append-only log. It serialises
// record framing under its own mutex — never the store's — and
// implements the sync policies, including leader-based group commit for
// SyncAlways.
//
// The staging buffers (pending, spare, scratch) grow as large as one
// batch needs but are kept across commits only while within
// wire.MaxKeptBuf (wire.KeepBuf): a bulk store record must not stay
// pinned for the store's life.
//
// Lock order: wr.mu and wr.sm are leaves; nothing is acquired while
// holding them. Callers may hold store or table locks when calling
// write, but never when calling waitDurable (the fsync wait must not
// block readers or unrelated writers).
type walWriter struct {
	policy   SyncPolicy
	interval time.Duration

	mu      sync.Mutex // guards f, pending/spare/scratch, off, wseq, recs, closed, werr
	f       LogFile
	pending []byte // staged v1 records awaiting the next group flush (SyncAlways)
	spare   []byte // double-buffer the flusher swaps in for pending
	scratch []byte // reused framing buffer for the direct-write policies
	off     int64  // bytes known fully written to f (for torn-write repair)
	wseq    uint64 // records accepted (staged or written) this process lifetime
	recs    uint64 // records in the current log file (replayed + accepted);
	// unlike wseq it survives restarts (seeded from replay) and resets on
	// Compact, so it is the log-shipping sequence space: a follower's
	// cursor indexes records of the current file, not of this process.
	closed bool
	werr   error // sticky: the log lost a record and can no longer be trusted

	sm      sync.Mutex // guards sseq, syncing, barrier, serr
	scond   *sync.Cond
	sseq    uint64 // records known durable (or superseded by a compacted log)
	syncing bool   // a group-commit leader is flushing+syncing
	barrier bool   // Close or Compact owns the file; no leader may start
	serr    error  // sticky: an fsync failed, acknowledged data may be lost

	syncs atomic.Uint64 // fsyncs issued, for LogStats

	stop chan struct{} // SyncInterval only: closes to stop the ticker
	done chan struct{} // SyncInterval only: ticker exit acknowledgement
}

// newWALWriter wraps an opened log file positioned for appends. size is
// the file's current byte length; recs is the number of records already
// in it (counted by replay), which seeds the log-shipping sequence.
func newWALWriter(f LogFile, size int64, recs uint64, opts Options) *walWriter {
	w := &walWriter{policy: opts.Sync, interval: opts.SyncInterval, f: f, off: size, recs: recs}
	if w.interval <= 0 {
		w.interval = DefaultSyncInterval
	}
	w.scond = sync.NewCond(&w.sm)
	if w.policy == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w
}

// write frames one record and makes it eligible for commit, returning
// its sequence number for waitDurable. Under SyncAlways the record is
// staged in the writer's buffer (the group-commit leader writes it);
// under the other policies it reaches the OS before write returns.
// Callers may hold table locks: this never blocks on disk under
// SyncAlways, and pays one buffered write(2) otherwise.
func (w *walWriter) write(op byte, payload []byte) (uint64, error) {
	// Replay rejects records above the wire frame cap as corruption, so
	// acknowledging one here would mean silently losing it — and
	// everything after it — on the next open. Refuse loudly instead.
	if len(payload) > wire.MaxFrameSize {
		return 0, fmt.Errorf("storage: log record of %d bytes exceeds maximum %d", len(payload), wire.MaxFrameSize)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errLogClosed
	}
	if w.werr != nil {
		return 0, w.werr
	}
	// A sticky fsync failure must refuse the mutation here, before the
	// caller applies it to memory. Under the deferred-sync policies
	// waitDurable never reports, so this is the only place the failure
	// can surface; under SyncAlways it stops records from piling into a
	// pending buffer no sync will ever drain (and the in-memory state
	// from drifting further from the durable one). Compact clears the
	// condition: the compacted file supersedes whatever the failed sync
	// missed.
	w.sm.Lock()
	serr := w.serr
	w.sm.Unlock()
	if serr != nil {
		return 0, serr
	}
	if w.policy == SyncAlways {
		w.pending = appendWALRecord(w.pending, op, payload)
		w.wseq++
		w.recs++
		return w.wseq, nil
	}
	w.scratch = appendWALRecord(w.scratch[:0], op, payload)
	err := w.writeLocked(w.scratch)
	w.scratch = wire.KeepBuf(w.scratch)
	if err != nil {
		return 0, err
	}
	w.wseq++
	w.recs++
	return w.wseq, nil
}

// records returns the log-shipping head: how many records the current
// log file holds once everything accepted reaches it.
func (w *walWriter) records() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recs
}

// writeLocked writes buf to the file, maintaining the known-good offset
// and repairing (truncating away) a torn partial write so the log stays
// parseable. Callers hold w.mu.
func (w *walWriter) writeLocked(buf []byte) error {
	n, err := w.f.Write(buf)
	if err == nil {
		w.off += int64(n)
		return nil
	}
	if n > 0 {
		if terr := w.f.Truncate(w.off); terr != nil {
			// The log now ends in garbage we cannot remove: refuse
			// further writes rather than strand every later record
			// behind an unparseable tail. Compact clears the condition
			// by rewriting the log.
			w.werr = fmt.Errorf("storage: log has a torn record that could not be repaired (write: %v, truncate: %v)", err, terr)
		}
	}
	return fmt.Errorf("storage: appending log record: %w", err)
}

// waitDurable blocks until the record with the given sequence number is
// durable per the policy. Under SyncAlways that means a group-commit
// flush+fsync covering seq has completed; the other policies
// acknowledge immediately. Callers must not hold store or table locks.
func (w *walWriter) waitDurable(seq uint64) error {
	if w.policy != SyncAlways {
		return nil
	}
	return w.syncUpTo(seq)
}

// syncUpTo drives group commit until seq is durable: the first waiter
// to find no flush in flight becomes the leader and commits everything
// staged so far; the rest wait and are usually covered by that same
// fsync.
func (w *walWriter) syncUpTo(seq uint64) error {
	w.sm.Lock()
	for w.sseq < seq && w.serr == nil {
		if w.syncing || w.barrier {
			w.scond.Wait()
			continue
		}
		w.syncing = true
		w.sm.Unlock()
		upto, err := w.flushAndSync()
		w.sm.Lock()
		w.syncing = false
		switch {
		case err == nil:
			if upto > w.sseq {
				w.sseq = upto
			}
		case errors.Is(err, os.ErrClosed):
			// The file was swapped (Compact) or closed under us; the
			// swap/close path marks our records durable itself.
		default:
			w.serr = fmt.Errorf("storage: syncing log: %w", err)
		}
		w.scond.Broadcast()
	}
	err := w.serr
	w.sm.Unlock()
	return err
}

// flushAndSync writes every staged record and fsyncs, returning the
// highest sequence number the fsync covers. Only one goroutine runs it
// at a time (the syncing flag), and Close/installFile raise the barrier
// and drain it first, so while it runs it is the sole writer to the
// file under SyncAlways — which is what lets it perform the write(2)
// and fsync with w.mu RELEASED: writers keep staging (they hold table
// or store locks while doing so) and never block behind the leader's
// disk I/O.
func (w *walWriter) flushAndSync() (uint64, error) {
	w.mu.Lock()
	buf := w.pending
	w.pending = w.spare[:0]
	upto := w.wseq
	f := w.f
	off := w.off
	w.mu.Unlock()
	var err error
	if len(buf) > 0 {
		n, werr := f.Write(buf)
		if werr == nil {
			w.mu.Lock()
			w.off += int64(n)
			w.mu.Unlock()
		} else {
			if n > 0 {
				// Erase the torn record so the log stays parseable; if
				// that fails too, poison the writer (Compact clears it).
				if terr := f.Truncate(off); terr != nil {
					w.mu.Lock()
					w.werr = fmt.Errorf("storage: log has a torn record that could not be repaired (write: %v, truncate: %v)", werr, terr)
					w.mu.Unlock()
				}
			}
			err = fmt.Errorf("storage: appending log record: %w", werr)
		}
	}
	if err == nil {
		if err = f.Sync(); err == nil {
			w.syncs.Add(1)
		}
	}
	// Recycle the flushed buffer as the next spare, unless a bulk record
	// grew it past what is worth pinning.
	w.mu.Lock()
	w.spare = wire.KeepBuf(buf)
	w.mu.Unlock()
	return upto, err
}

// syncLoop is the SyncInterval background fsync. It reuses the group
// commit path so a concurrent Compact or Close coordinates with it the
// same way it does with SyncAlways leaders.
func (w *walWriter) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			seq := w.wseq
			w.mu.Unlock()
			w.sm.Lock()
			covered := w.sseq >= seq
			w.sm.Unlock()
			if !covered {
				w.syncUpTo(seq)
			}
		}
	}
}

// syncNow forces everything accepted so far onto stable storage,
// regardless of policy. Used by Store.Sync and on Close.
func (w *walWriter) syncNow() error {
	w.mu.Lock()
	seq := w.wseq
	w.mu.Unlock()
	return w.syncUpTo(seq)
}

// installFile swaps in a freshly compacted log file whose contents
// already reflect every accepted record and are already fsynced. The
// caller (Compact) guarantees no concurrent write(). Everything staged
// or unsynced is superseded by the new file, so pending is discarded,
// all waiters are released as durable, and sticky errors are cleared —
// compaction un-bricks a store whose old log failed. The old file is
// closed; a failure to close it is returned but leaves the store fully
// usable on the new log. recs is the new file's record count, which
// restarts the log-shipping sequence space.
func (w *walWriter) installFile(f LogFile, size int64, recs uint64) error {
	w.sm.Lock()
	w.barrier = true
	for w.syncing {
		w.scond.Wait()
	}
	w.sm.Unlock()

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.sm.Lock()
		w.barrier = false
		w.scond.Broadcast()
		w.sm.Unlock()
		_ = f.Close()
		return errLogClosed
	}
	old := w.f
	w.f = f
	w.off = size
	w.recs = recs
	w.pending = wire.KeepBuf(w.pending)
	w.werr = nil
	seq := w.wseq
	w.mu.Unlock()

	w.sm.Lock()
	w.barrier = false
	if seq > w.sseq {
		//phlint:ignore syncack rotateLog fsynced the replacement file before handing it to installFile
		w.sseq = seq
	}
	w.serr = nil
	w.scond.Broadcast()
	w.sm.Unlock()

	if err := old.Close(); err != nil {
		return fmt.Errorf("storage: closing pre-compaction log: %w", err)
	}
	return nil
}

// Close flushes staged records, fsyncs (a clean shutdown is durable
// even under SyncInterval and SyncNever), and closes the file. Later
// writes fail with errLogClosed; waiters racing Close are released once
// the final fsync covers them.
func (w *walWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true // stops new staging/writes
	w.mu.Unlock()

	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	// Raise the barrier and drain any in-flight group commit, so from
	// here on this goroutine is the file's only writer.
	w.sm.Lock()
	w.barrier = true
	for w.syncing {
		w.scond.Wait()
	}
	w.sm.Unlock()

	w.mu.Lock()
	f := w.f
	buf := w.pending
	w.pending = nil
	var werr error
	if len(buf) > 0 {
		werr = w.writeLocked(buf)
	}
	w.mu.Unlock()
	serr := f.Sync()
	if serr == nil {
		w.syncs.Add(1)
	}
	cerr := f.Close()

	w.sm.Lock()
	w.barrier = false
	if serr == nil && werr == nil {
		w.sseq = ^uint64(0) // everything accepted is durable
	} else if w.serr == nil {
		w.serr = fmt.Errorf("storage: final log sync failed: %w", errors.Join(werr, serr))
	}
	w.scond.Broadcast()
	w.sm.Unlock()

	if werr != nil {
		return werr
	}
	if serr != nil {
		return fmt.Errorf("storage: syncing log on close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("storage: closing log: %w", cerr)
	}
	return nil
}

// failure returns the writer's sticky error, if any: a torn record it
// could not repair, or a failed write or fsync. While one is set every
// mutation is refused.
func (w *walWriter) failure() error {
	w.mu.Lock()
	werr := w.werr
	w.mu.Unlock()
	w.sm.Lock()
	defer w.sm.Unlock()
	return cmp.Or(werr, w.serr)
}

// stats returns the writer's activity counters.
func (w *walWriter) stats() LogStats {
	w.mu.Lock()
	recs := w.wseq
	w.mu.Unlock()
	return LogStats{Records: recs, Syncs: w.syncs.Load()}
}
