package storage

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ph"
	"repro/internal/wire"
)

// fakeLogFile is an instrumented in-memory LogFile. It tracks how many
// bytes have been written and how many of those an fsync has covered, so
// tests can pin the sync-before-ack ordering and the fsync sharing of
// group commit without depending on disk timing.
type fakeLogFile struct {
	mu        sync.Mutex
	data      []byte
	synced    atomic.Int64 // bytes covered by the last Sync
	syncs     atomic.Int64
	syncDelay time.Duration
	failWrite error
	failSync  error
	closed    bool
}

func (f *fakeLogFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failWrite != nil {
		// Simulate a torn write: half the record reaches the file.
		n := len(p) / 2
		f.data = append(f.data, p[:n]...)
		return n, f.failWrite
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *fakeLogFile) Sync() error {
	if f.syncDelay > 0 {
		time.Sleep(f.syncDelay)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failSync != nil {
		return f.failSync
	}
	f.synced.Store(int64(len(f.data)))
	f.syncs.Add(1)
	return nil
}

func (f *fakeLogFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = f.data[:size]
	return nil
}

func (f *fakeLogFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

// TestWALSyncBeforeAck pins the SyncAlways contract at the writer level:
// waitDurable may not return before an fsync covering the record's bytes
// has completed. Records are fixed-size, so record seq's last byte sits
// at seq*recLen; comparing against the fake's synced watermark makes the
// ordering check exact even with concurrent writers.
func TestWALSyncBeforeAck(t *testing.T) {
	f := &fakeLogFile{syncDelay: time.Millisecond}
	w := newWALWriter(f, 0, 0, Options{Sync: SyncAlways})
	payload := make([]byte, 32)
	recLen := int64(walV1HdrLen + len(payload))

	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := w.write(opInsert, payload)
				if err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := w.waitDurable(seq); err != nil {
					t.Errorf("waitDurable: %v", err)
					return
				}
				if got := f.synced.Load(); got < int64(seq)*recLen {
					t.Errorf("record %d acknowledged with only %d bytes synced (record ends at %d)",
						seq, got, int64(seq)*recLen)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	total := int64(writers * perWriter)
	syncs := f.syncs.Load()
	if syncs == 0 || syncs > total {
		t.Fatalf("%d records took %d fsyncs", total, syncs)
	}
	// Group commit must share fsyncs among the 8 concurrent writers. The
	// sharing factor is scheduling-dependent, but with a slowed-down Sync
	// it cannot degenerate to one fsync per record.
	if syncs > total*3/4 {
		t.Errorf("group commit not sharing: %d fsyncs for %d records", syncs, total)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !f.closed {
		t.Error("Close did not close the file")
	}
}

// TestWALSingleWriterAlwaysSyncsEachRecord: with no concurrency there is
// nothing to share, so every acknowledged record pays its own fsync.
func TestWALSingleWriterAlwaysSyncsEachRecord(t *testing.T) {
	f := &fakeLogFile{}
	w := newWALWriter(f, 0, 0, Options{Sync: SyncAlways})
	for i := 0; i < 10; i++ {
		seq, err := w.write(opInsert, []byte{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.waitDurable(seq); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.syncs.Load(); got != 10 {
		t.Fatalf("single writer issued %d fsyncs for 10 records", got)
	}
}

// TestWALNeverPolicy: no fsync during operation, exactly one on Close,
// and the record still reaches the OS (the fake) before the ack.
func TestWALNeverPolicy(t *testing.T) {
	f := &fakeLogFile{}
	w := newWALWriter(f, 0, 0, Options{Sync: SyncNever})
	seq, err := w.write(opInsert, []byte{9})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.waitDurable(seq); err != nil {
		t.Fatal(err)
	}
	if len(f.data) == 0 {
		t.Fatal("record not written before ack under SyncNever")
	}
	if f.syncs.Load() != 0 {
		t.Fatalf("SyncNever fsynced %d times during operation", f.syncs.Load())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if f.syncs.Load() != 1 {
		t.Fatalf("Close under SyncNever issued %d fsyncs, want 1", f.syncs.Load())
	}
}

// TestWALIntervalPolicy: acks don't wait, and the background ticker
// eventually syncs what was written.
func TestWALIntervalPolicy(t *testing.T) {
	f := &fakeLogFile{}
	w := newWALWriter(f, 0, 0, Options{Sync: SyncInterval, SyncInterval: time.Millisecond})
	seq, err := w.write(opInsert, []byte{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.waitDurable(seq); err != nil { // must not block
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for f.syncs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background interval sync never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if got := f.synced.Load(); got != int64(len(f.data)) {
		t.Fatalf("interval sync covered %d of %d bytes", got, len(f.data))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The ticker must be stopped: sync count stays put afterwards.
	after := f.syncs.Load()
	time.Sleep(5 * time.Millisecond)
	if got := f.syncs.Load(); got != after {
		t.Fatalf("ticker still running after Close: %d -> %d syncs", after, got)
	}
}

// TestWALWriteAfterCloseFails pins that a closed log refuses mutations
// instead of silently dropping them (the pre-WAL store no-op'd).
func TestWALWriteAfterCloseFails(t *testing.T) {
	w := newWALWriter(&fakeLogFile{}, 0, 0, Options{Sync: SyncNever})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.write(opInsert, []byte{1}); !errors.Is(err, errLogClosed) {
		t.Fatalf("write after close: %v, want errLogClosed", err)
	}
	if err := w.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}

// TestWALTornWriteRepaired: a failed partial write is truncated away so
// the log stays parseable, and the writer keeps accepting records.
func TestWALTornWriteRepaired(t *testing.T) {
	f := &fakeLogFile{}
	w := newWALWriter(f, 0, 0, Options{Sync: SyncNever})
	if _, err := w.write(opInsert, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	good := len(f.data)
	f.failWrite = errors.New("disk full")
	if _, err := w.write(opInsert, []byte{5, 6, 7, 8}); err == nil {
		t.Fatal("failed write reported success")
	}
	if len(f.data) != good {
		t.Fatalf("torn record not truncated: %d bytes, want %d", len(f.data), good)
	}
	f.failWrite = nil
	if _, err := w.write(opInsert, []byte{9}); err != nil {
		t.Fatalf("writer did not recover from a repaired torn write: %v", err)
	}
}

// TestWALIntervalSyncFailureSurfaces: under SyncInterval waitDurable
// never reports, so a failed background fsync must fail later writes —
// otherwise the bounded loss window silently becomes unbounded.
func TestWALIntervalSyncFailureSurfaces(t *testing.T) {
	f := &fakeLogFile{failSync: errors.New("enospc")}
	w := newWALWriter(f, 0, 0, Options{Sync: SyncInterval, SyncInterval: time.Millisecond})
	defer w.Close()
	if _, err := w.write(opInsert, []byte{1}); err != nil {
		t.Fatal(err) // nothing has failed yet
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := w.write(opInsert, []byte{2}); err != nil {
			return // background sync failure surfaced
		}
		if time.Now().After(deadline) {
			t.Fatal("writes kept succeeding after the background fsync started failing")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWALOversizedRecordRejected: a record replay would reject as
// corruption must be refused at write time, not acknowledged and then
// silently truncated away on the next open.
func TestWALOversizedRecordRejected(t *testing.T) {
	f := &fakeLogFile{}
	w := newWALWriter(f, 0, 0, Options{Sync: SyncNever})
	defer w.Close()
	if _, err := w.write(opInsert, make([]byte, wire.MaxFrameSize+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if len(f.data) != 0 {
		t.Fatal("oversized record partially written")
	}
	if _, err := w.write(opInsert, []byte{1}); err != nil {
		t.Fatalf("writer unusable after rejecting an oversized record: %v", err)
	}
}

// TestWALSyncErrorSticky: once an fsync fails under SyncAlways the
// writer reports the failure to every waiter, and refuses later records
// outright — before the caller applies them to memory — rather than
// staging them into a buffer no sync will ever drain.
func TestWALSyncErrorSticky(t *testing.T) {
	f := &fakeLogFile{failSync: errors.New("io error")}
	w := newWALWriter(f, 0, 0, Options{Sync: SyncAlways})
	seq, err := w.write(opInsert, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.waitDurable(seq); err == nil {
		t.Fatal("fsync failure acknowledged as durable")
	}
	if _, err := w.write(opInsert, []byte{2}); err == nil {
		t.Fatal("writer accepted a record after an unresolved fsync failure")
	}
}

// TestWALKeepsNoBulkBuffer: after store records of more than 2 MiB and
// of half a MiB, and the flush that commits them, no staging buffer the
// log writer keeps is larger than wire.MaxKeptBuf, under any sync
// policy — a bulk upload must not stay pinned for the store's life.
func TestWALKeepsNoBulkBuffer(t *testing.T) {
	bulk := func(kib int) *ph.EncryptedTable {
		et := fixtureTable(4, 0xAA)
		for i := 0; i < kib; i++ {
			et.Tuples = append(et.Tuples, ph.EncryptedTuple{ID: et.Tuples[0].ID, Words: [][]byte{make([]byte, 1024), {byte(i)}}})
		}
		return et
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			s, err := OpenOptions(filepath.Join(t.TempDir(), "store.log"), Options{Sync: p})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Put("bulk", bulk(2048)); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("half", bulk(512)); err != nil {
				t.Fatal(err)
			}
			if err := s.Append("bulk", fixtureTable(2, 0xBB).Tuples); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if size, _ := s.LogSize(); size < 5<<19 {
				t.Fatalf("log of %d bytes: the store records are not bulk", size)
			}
			w := s.wal
			w.mu.Lock()
			defer w.mu.Unlock()
			for name, b := range map[string][]byte{"pending": w.pending, "spare": w.spare, "scratch": w.scratch} {
				if cap(b) > wire.MaxKeptBuf {
					t.Errorf("%s keeps a %d-byte buffer, above wire.MaxKeptBuf = %d", name, cap(b), wire.MaxKeptBuf)
				}
			}
		})
	}
}
