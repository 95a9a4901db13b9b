package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ph"
	"repro/internal/wire"
)

// tablesEqual deep-compares two encrypted tables.
func tablesEqual(a, b *ph.EncryptedTable) error {
	if a.SchemeID != b.SchemeID {
		return fmt.Errorf("scheme %q != %q", a.SchemeID, b.SchemeID)
	}
	if !bytes.Equal(a.Meta, b.Meta) {
		return fmt.Errorf("meta differs")
	}
	if len(a.Tuples) != len(b.Tuples) {
		return fmt.Errorf("%d tuples != %d tuples", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		at, bt := a.Tuples[i], b.Tuples[i]
		if !bytes.Equal(at.ID, bt.ID) || !bytes.Equal(at.Blob, bt.Blob) || len(at.Words) != len(bt.Words) {
			return fmt.Errorf("tuple %d differs", i)
		}
		for j := range at.Words {
			if !bytes.Equal(at.Words[j], bt.Words[j]) {
				return fmt.Errorf("tuple %d word %d differs", i, j)
			}
		}
	}
	return nil
}

// corruptSetup writes a small store and returns its log path plus the
// table state at the point of corruption.
func corruptSetup(t *testing.T) (string, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("emp", fakeTable(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("emp", fakeTable(2).Tuples); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path, 5
}

// reopenExpect reopens the log and asserts the replayed table's tuple
// count and that the store accepts (and replays) a fresh append — i.e.
// corruption was truncated away, not left to brick the write path.
func reopenExpect(t *testing.T, path string, want int) {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatalf("reopen of damaged log failed: %v", err)
	}
	got, err := s.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != want {
		t.Fatalf("replayed %d tuples, want %d", len(got.Tuples), want)
	}
	if err := s.Append("emp", fakeTable(1).Tuples); err != nil {
		t.Fatalf("store bricked after recovery: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err = s2.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != want+1 {
		t.Fatalf("append after recovery lost: %d tuples, want %d", len(got.Tuples), want+1)
	}
}

// headed returns log behind a valid log header, as a store's log file
// holds its records.
func headed(log []byte) []byte {
	return append(appendLogHeader(nil, 1, shipBase{}), log...)
}

func appendRaw(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestRecoveryTornV1Header: a crash that left only a fragment of a v1
// header is truncated away.
func TestRecoveryTornV1Header(t *testing.T) {
	path, want := corruptSetup(t)
	appendRaw(t, path, []byte{walMagic, opInsert, 0x00}) // 3 of 10 header bytes
	reopenExpect(t, path, want)
}

// TestRecoveryTornV1Payload: a full v1 header whose payload never made
// it is truncated away — including the corrupt-length case the old
// format misread: a plausible (< MaxFrameSize) length now fails the CRC
// or the payload read instead of silently truncating valid data.
func TestRecoveryTornV1Payload(t *testing.T) {
	path, want := corruptSetup(t)
	rec := appendWALRecord(nil, opInsert, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	appendRaw(t, path, rec[:len(rec)-3]) // lose the last 3 payload bytes
	reopenExpect(t, path, want)
}

// TestRecoveryCRCCorruptMidLog: a bit flip in a mid-log record is
// detected by the CRC; replay keeps everything before it, truncates it
// and everything after (the classic WAL stop-at-first-corruption rule),
// and the store stays writable.
func TestRecoveryCRCCorruptMidLog(t *testing.T) {
	path, want := corruptSetup(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mark := len(data) // start of the record we will corrupt
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("emp", fakeTable(3).Tuples); err != nil { // to be corrupted
		t.Fatal(err)
	}
	if err := s.Append("emp", fakeTable(1).Tuples); err != nil { // collateral loss after the flip
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[mark+walV1HdrLen+2] ^= 0x40 // flip one payload bit mid-log
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	reopenExpect(t, path, want)
}

// TestRecoveryCorruptLengthDetected is the regression for the original
// bug: a corrupted length field that stays under MaxFrameSize used to
// make replay swallow the following record's bytes as payload and
// misapply everything after. With the CRC covering the length, the
// record is rejected instead.
func TestRecoveryCorruptLengthDetected(t *testing.T) {
	path, want := corruptSetup(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mark := len(data)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("emp", fakeTable(2).Tuples); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("emp", fakeTable(2).Tuples); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[mark+5] ^= 0x01 // low length byte: still plausible, now wrong
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	reopenExpect(t, path, want)
}

// TestRecoveryLengthBeyondFileAllocatesNothing: a torn record whose
// length field declares 60 MiB — under the frame cap, far past the
// bytes the file holds — is refused before its payload is allocated,
// and replay truncates it away as before.
func TestRecoveryLengthBeyondFileAllocatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	data := appendWALRecord(headed(nil), opStore, fuzzStorePayload("emp", 1))
	keep := len(data)
	data = binary.BigEndian.AppendUint32(append(data, walMagic, opStore), 60<<20)
	data = append(data, make([]byte, logHdrLen+100-len(data))...)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := OpenOptions(path, Options{Sync: SyncNever})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("replaying a %d-byte log allocated %d bytes", len(data), n)
	}
	if _, err := s.Get("emp"); err != nil {
		t.Fatalf("the record before the torn one was lost: %v", err)
	}
	if size, err := s.LogSize(); err != nil || size != int64(keep) {
		t.Fatalf("log is %d bytes after replay (err %v), want it truncated to %d", size, err, keep)
	}
}

// TestRecoveryRejectsRecordWithoutMagic: a record boundary that does not
// start with the magic byte ends the log like any other corrupt record.
// The log holds v1, v1, bytes in the unchecksummed len|op|payload shape,
// v1: the first two records survive and the file is truncated at the
// third, taking the valid record behind it along.
func TestRecoveryRejectsRecordWithoutMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	storePayload := wire.AppendString(nil, "emp")
	storePayload = wire.EncodeTable(storePayload, fakeTable(2))
	insPayload := fuzzInsertPayload("emp", 1)
	log := appendWALRecord(headed(nil), opStore, storePayload)
	log = appendWALRecord(log, opInsert, insPayload)
	keep := len(log)
	log = append(log, v0Record(opInsert, insPayload)...)
	log = appendWALRecord(log, opInsert, insPayload)
	if err := os.WriteFile(path, log, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, head := s.LogHead(); head != 2 {
		t.Fatalf("replay kept %d records, want 2", head)
	}
	if size, _ := s.LogSize(); size != int64(keep) {
		t.Fatalf("log is %d bytes after replay, want it truncated to %d", size, keep)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopenExpect(t, path, 3)
}

// TestOpenRefusesHeaderlessLog: a log that starts with a record was
// written before logs carried their epoch and ship base in a header.
// Open refuses it, naming the format change, and leaves the file whole.
func TestOpenRefusesHeaderlessLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	log := appendWALRecord(nil, opStore, fuzzStorePayload("emp", 2))
	log = appendWALRecord(log, opInsert, fuzzInsertPayload("emp", 1))
	if err := os.WriteFile(path, log, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("a log without a header opened")
	}
	if !strings.Contains(err.Error(), "header") {
		t.Fatalf("error %q does not name the header", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, log) {
		t.Fatalf("log changed by the refused open (%d bytes, want the %d written; %v)", len(got), len(log), err)
	}
}

// perTupleInsertRecord is a CRC-valid insert record of two fakeTable
// tuples into "emp" in the tuple format that framed every ID, blob, word
// count and word with its own u32 length, as a build of that format
// wrote it.
const perTupleInsertRecord = "d10200000035da84478400000003656d7000000002000000010000000002b0000000000100000002a000000000010100000002b0010000000100000002a001"

// TestReplayRefusesPerTupleFormat: a record whose checksum holds but
// whose tuples are in a format this build does not know is a hard
// error naming its offset, not a torn tail: Open fails and the file
// keeps every byte.
func TestReplayRefusesPerTupleFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	old, err := hex.DecodeString(perTupleInsertRecord)
	if err != nil {
		t.Fatal(err)
	}
	log := appendWALRecord(headed(nil), opStore, fuzzStorePayload("emp", 2))
	offset := len(log)
	log = append(log, old...)
	if err := os.WriteFile(path, log, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("a log with a per-tuple-format record opened")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("at offset %d", offset)) {
		t.Fatalf("error %q does not name offset %d", err, offset)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len(log)) {
		t.Fatalf("log is %d bytes after a refused replay, want all %d kept", info.Size(), len(log))
	}
}

// TestConcurrentMutationsReplayConsistent is the -race ordering test for
// the narrowed locks: concurrent Append/Put/Drop across several tables,
// then a reopen, asserting the replayed catalogue is byte-identical to
// the in-memory one. This pins the invariant that same-table records
// enter the log in their in-memory application order even though no
// store-wide lock serialises the write path any more.
func TestConcurrentMutationsReplayConsistent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenOptions(path, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	tables := []string{"alpha", "beta", "gamma", "delta"}
	for _, name := range tables {
		if err := s.Put(name, fakeTable(2)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, name := range tables {
		// One appender per table.
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				if err := s.Append(name, fakeTable(1).Tuples); err != nil {
					t.Errorf("append %s: %v", name, err)
					return
				}
			}
		}(name)
		// One replacer racing the appender on half the tables: Put
		// installs a fresh lineage mid-append-stream.
		if i%2 == 0 {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					if err := s.Put(name, fakeTable(3)); err != nil {
						t.Errorf("put %s: %v", name, err)
						return
					}
				}
			}(name)
		}
	}
	// Drop/recreate churn on its own table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 15; j++ {
			if err := s.Put("churn", fakeTable(1)); err != nil {
				t.Errorf("churn put: %v", err)
				return
			}
			if err := s.Drop("churn"); err != nil {
				t.Errorf("churn drop: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Snapshot in-memory state, close, replay, compare byte-for-byte.
	want := map[string]*ph.EncryptedTable{}
	for _, info := range s.List() {
		tab, err := s.Get(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		want[info.Name] = tab
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	infos := s2.List()
	if len(infos) != len(want) {
		t.Fatalf("replayed %d tables, want %d (%v)", len(infos), len(want), infos)
	}
	for name, w := range want {
		got, err := s2.Get(name)
		if err != nil {
			t.Fatalf("replayed store lost table %q: %v", name, err)
		}
		if err := tablesEqual(got, w); err != nil {
			t.Errorf("table %q diverges after replay: %v", name, err)
		}
	}
}

// TestAppendDistinctTablesNotSerialized pins the lock narrowing: an
// append stalled on one table's lock must not block appends to another
// table. Under the old store-wide mutex the stalled append would have
// held (or queued behind) s.mu and wedged the whole write path.
func TestAppendDistinctTablesNotSerialized(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("hot", fakeTable(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("cold", fakeTable(1)); err != nil {
		t.Fatal(err)
	}

	// Stall table "hot": hold its write lock, then start an append that
	// must queue behind it.
	s.mu.RLock()
	hot := s.tables["hot"]
	s.mu.RUnlock()
	hot.mu.Lock()
	hotDone := make(chan error, 1)
	go func() { hotDone <- s.Append("hot", fakeTable(1).Tuples) }()

	// Appends to the other table must complete while "hot" is wedged.
	coldDone := make(chan error, 1)
	go func() { coldDone <- s.Append("cold", fakeTable(1).Tuples) }()
	select {
	case err := <-coldDone:
		if err != nil {
			t.Fatalf("append to cold table: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append to a distinct table serialized behind a stalled append")
	}
	select {
	case err := <-hotDone:
		t.Fatalf("append to hot table finished while its lock was held (%v)", err)
	default:
	}
	hot.mu.Unlock()
	if err := <-hotDone; err != nil {
		t.Fatalf("stalled append failed after unblock: %v", err)
	}
}

// TestCloseIsDurableUnderNever: acknowledged-but-unsynced writes under
// SyncNever survive a clean Close (which must sync), pinned by the
// LogStats sync counter.
func TestCloseIsDurableUnderNever(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenOptions(path, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("emp", fakeTable(2)); err != nil {
		t.Fatal(err)
	}
	if st := s.LogStats(); st.Syncs != 0 || st.Records != 1 {
		t.Fatalf("unexpected log stats before close: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.LogStats(); st.Syncs != 1 {
		t.Fatalf("Close did not sync: %+v", st)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get("emp"); err != nil {
		t.Fatalf("clean shutdown lost data under SyncNever: %v", err)
	}
}

// heldSyncLog is a LogFile whose first fsync after armed is set blocks
// until held is closed, so a test can stage records behind one fsync in
// flight. It counts the fsyncs it sees while armed.
type heldSyncLog struct {
	LogFile
	held  chan struct{}
	armed atomic.Bool
	syncs atomic.Int64
}

func (f *heldSyncLog) Sync() error {
	if f.armed.Load() && f.syncs.Add(1) == 1 {
		<-f.held
	}
	return f.LogFile.Sync()
}

// TestGroupCommitSharesFsyncsOnDisk runs 8 writers, one table each,
// under SyncAlways on a real log file. The first round logs the
// records/fsync ratio that disk timing happens to give. The second is
// the gate: it holds the first fsync until all 8 writers' records are
// staged behind it, so group commit must cover them with that fsync and
// at most one more, where fsync-per-record pays 8.
func TestGroupCommitSharesFsyncsOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	hold := &heldSyncLog{held: make(chan struct{})}
	s, err := OpenOptions(path, Options{Sync: SyncAlways, WrapLog: func(f LogFile) LogFile {
		hold.LogFile = f
		return hold
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter = 8, 15
	for g := 0; g < writers; g++ {
		if err := s.Put(fmt.Sprintf("t%d", g), fakeTable(1)); err != nil {
			t.Fatal(err)
		}
	}
	appendAll := func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				name := fmt.Sprintf("t%d", g)
				for j := 0; j < n; j++ {
					if err := s.Append(name, fakeTable(1).Tuples); err != nil {
						t.Errorf("append %s: %v", name, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}

	base := s.LogStats()
	appendAll(perWriter)
	if t.Failed() {
		return
	}
	st := s.LogStats()
	records := st.Records - base.Records
	syncs := st.Syncs - base.Syncs
	if records != writers*perWriter {
		t.Fatalf("recorded %d records, want %d", records, writers*perWriter)
	}
	if syncs == 0 {
		t.Fatal("SyncAlways issued no fsyncs")
	}
	t.Logf("group commit: %d records over %d fsyncs (%.1f records/fsync)",
		records, syncs, float64(records)/float64(syncs))

	// Gated round. Armed only now: OpenOptions and Put fsync too. The
	// hold is released once every writer's record is staged; the
	// backstop releases it if a writer is stuck behind the held fsync,
	// which fails the test instead of hanging it.
	base = s.LogStats()
	hold.armed.Store(true)
	var once sync.Once
	release := func() { once.Do(func() { close(hold.held) }) }
	var stuck atomic.Bool
	backstop := time.AfterFunc(10*time.Second, func() { stuck.Store(true); release() })
	defer backstop.Stop()
	go func() {
		for !stuck.Load() {
			if s.LogStats().Records-base.Records >= writers {
				release()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	appendAll(1)
	if t.Failed() {
		return
	}
	if stuck.Load() {
		t.Fatalf("the %d writers could not all stage a record while the first fsync was held", writers)
	}
	if records, syncs := s.LogStats().Records-base.Records, hold.syncs.Load(); records != writers || syncs > 2 {
		t.Fatalf("%d records over %d fsyncs behind one held fsync, want %d over ≤ 2", records, syncs, writers)
	}
}
