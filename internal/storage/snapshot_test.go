package storage

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/ph"
)

// buildPrimary opens a durable store at a fresh path and loads it with
// a couple of tables plus appends, returning the store and its path.
func buildPrimary(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Put("emp", fakeTable(5)); err != nil {
		t.Fatal(err)
	}
	if err := p.Put("dept", fakeTable(3)); err != nil {
		t.Fatal(err)
	}
	if err := p.Append("emp", fakeTable(2).Tuples); err != nil {
		t.Fatal(err)
	}
	return p, path
}

// assertSameRoots fails unless both stores serve identical table sets
// with identical authenticated roots.
func assertSameRoots(t *testing.T, a, b *Store) {
	t.Helper()
	la, lb := a.List(), b.List()
	if len(la) != len(lb) {
		t.Fatalf("table counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("table %d differs: %+v vs %+v", i, la[i], lb[i])
		}
		ra, na, _, err := a.Root(la[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		rb, nb, _, err := b.Root(lb[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		if na != nb || !bytes.Equal(ra, rb) {
			t.Fatalf("roots of %q diverge: %d tuples %x vs %d tuples %x", la[i].Name, na, ra, nb, rb)
		}
	}
}

func TestSnapshotRoundTripMemory(t *testing.T) {
	p, _ := buildPrimary(t)
	snap, cur, err := p.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantEpoch, wantHead := p.LogHead()
	if cur.Epoch != wantEpoch || cur.Seq != wantHead {
		t.Fatalf("snapshot cursor (%d,%d), want the log head (%d,%d)", cur.Epoch, cur.Seq, wantEpoch, wantHead)
	}
	f := NewMemory()
	got, err := f.InstallSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got != cur {
		t.Fatalf("install returned cursor %+v, snapshot embeds %+v", got, cur)
	}
	assertSameRoots(t, p, f)
	if e, s, ok := f.ResumeCursor(); !ok || e != cur.Epoch || s != cur.Seq {
		t.Fatalf("ResumeCursor = (%d,%d,%v), want (%d,%d,true)", e, s, ok, cur.Epoch, cur.Seq)
	}
}

// The byte format of buildPrimary's catalogue: its log as written, and
// its log after Compact. Both are pinned so a change to the record
// format — or to which records Compact writes — cannot pass unnoticed.
const (
	primaryLogSHA256       = "68f19405a25ffaa100d307ca8d7e46a0349bc458f25ffd760438639ae3f42f39"
	primaryCompactedSHA256 = "9e05c0dcd7bf3cf0c15a98bc18c3c0f72262e74f4bb957a41df2a2eda5e0cea0"
)

// TestSnapshotBodyIsCompactedLog pins the single record format: for one
// catalogue, the primary's log after Compact is exactly the record
// section of its snapshot, and a durable follower that installs that
// snapshot holds a log byte-identical to it — and to the pinned bytes.
func TestSnapshotBodyIsCompactedLog(t *testing.T) {
	p, path := buildPrimary(t)
	digest := func(what, path, want string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
			t.Fatalf("%s: %d bytes with SHA-256 %s, want %s", what, len(b), got, want)
		}
		return b
	}
	digest("primary log", path, primaryLogSHA256)
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := digest("compacted log", path, primaryCompactedSHA256)
	snap, _, err := p.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if body := snap[snapHdrLen : len(snap)-4]; !bytes.Equal(body, compacted) {
		t.Fatalf("snapshot body (%d bytes) differs from the compacted log (%d bytes)", len(body), len(compacted))
	}

	fpath := filepath.Join(t.TempDir(), "follower.log")
	f, err := Open(fpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Put("stale", fakeTable(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	digest("follower log after install", fpath, primaryCompactedSHA256)
	assertSameRoots(t, p, f)
}

// TestSnapshotInstallDurable pins the durable follower path: the
// snapshot's contents survive the follower's own restart, and so does
// the resume cursor — advanced by the records applied after install.
func TestSnapshotInstallDurable(t *testing.T) {
	p, _ := buildPrimary(t)
	snap, cur, err := p.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fpath := filepath.Join(t.TempDir(), "follower.log")
	f, err := Open(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("stale", fakeTable(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get("stale"); err == nil {
		t.Fatal("install kept a table the snapshot does not contain")
	}
	assertSameRoots(t, p, f)

	// Tail one more record past the snapshot, then restart.
	if err := p.Append("dept", fakeTable(1).Tuples); err != nil {
		t.Fatal(err)
	}
	log, _, _, _, err := p.ReadLog(cur.Epoch, cur.Seq, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.ApplyShipped(log); err != nil || n != 1 {
		t.Fatalf("applied %d records shipped from the snapshot cursor (err %v), want 1", n, err)
	}
	assertSameRoots(t, p, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(fpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	assertSameRoots(t, p, f2)
	if e, s, ok := f2.ResumeCursor(); !ok || e != cur.Epoch || s != cur.Seq+1 {
		t.Fatalf("restarted ResumeCursor = (%d,%d,%v), want (%d,%d,true)", e, s, ok, cur.Epoch, cur.Seq+1)
	}
}

// TestSnapshotInstallAtomic pins the old-state-on-any-failure contract:
// a corrupted snapshot must not disturb the store, in memory or on disk.
func TestSnapshotInstallAtomic(t *testing.T) {
	p, _ := buildPrimary(t)
	good, _, err := p.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fpath := filepath.Join(t.TempDir(), "follower.log")
	f, err := Open(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("keep", fakeTable(4)); err != nil {
		t.Fatal(err)
	}
	wantRoot, wantN, _, err := f.Root("keep")
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string][]byte{
		"truncated header": good[:snapHdrLen-1],
		"truncated body":   good[:len(good)-5],
		"flipped byte":     flipByte(good, len(good)/2),
		"flipped trailer":  flipByte(good, len(good)-1),
		"bad magic":        flipByte(good, 0),
		"empty":            {},
	}
	for name, bad := range mutations {
		if _, err := f.InstallSnapshot(bad); err == nil {
			t.Fatalf("%s: install of corrupt snapshot succeeded", name)
		}
		root, n, _, err := f.Root("keep")
		if err != nil || n != wantN || !bytes.Equal(root, wantRoot) {
			t.Fatalf("%s: failed install disturbed the store (root err %v)", name, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(fpath)
	if err != nil {
		t.Fatalf("reopen after failed installs: %v", err)
	}
	defer f2.Close()
	root, n, _, err := f2.Root("keep")
	if err != nil || n != wantN || !bytes.Equal(root, wantRoot) {
		t.Fatalf("failed installs disturbed the durable log (root err %v)", err)
	}
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x40
	return c
}

// TestSnapshotChunkedTransfer drives the resumable chunk protocol the
// way a follower does — tiny budget, identity echo, reassemble — and
// checks the hostile-request clamps on the way.
func TestSnapshotChunkedTransfer(t *testing.T) {
	p, _ := buildPrimary(t)
	var assembled []byte
	var e, q uint64
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("transfer never completed")
		}
		data, ce, cq, total, off, err := p.ReadSnapshot(e, q, uint64(len(assembled)), 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 16 {
			t.Fatalf("chunk of %d bytes exceeds the requested budget", len(data))
		}
		if ce != e || cq != q {
			if off != 0 {
				t.Fatalf("new identity (%d,%d) served from offset %d", ce, cq, off)
			}
			assembled, e, q = nil, ce, cq
		}
		assembled = append(assembled, data...)
		if uint64(len(assembled)) == total {
			break
		}
	}
	f := NewMemory()
	cur, err := f.InstallSnapshot(assembled)
	if err != nil {
		t.Fatalf("installing reassembled snapshot: %v", err)
	}
	if cur.Epoch != e || cur.Seq != q {
		t.Fatalf("embedded cursor (%d,%d) != served identity (%d,%d)", cur.Epoch, cur.Seq, e, q)
	}
	assertSameRoots(t, p, f)

	// Hostile shapes: offset past the end is empty, huge budgets clamp,
	// a voided identity restarts from 0 under the server's identity.
	data, _, _, total, off, err := p.ReadSnapshot(e, q, 1<<40, 16)
	if err != nil || len(data) != 0 || off != total {
		t.Fatalf("offset past end: data %d, off %d, err %v", len(data), off, err)
	}
	data, _, _, _, _, err = p.ReadSnapshot(e, q, 0, ^uint32(0))
	if err != nil || len(data) > maxSnapChunk {
		t.Fatalf("budget clamp failed: %d bytes, err %v", len(data), err)
	}
	data, ne, nq, _, off, err := p.ReadSnapshot(e+1, q+7, 9999, 16)
	if err != nil || off != 0 {
		t.Fatalf("unknown identity: off %d, err %v", off, err)
	}
	if ne == e+1 && nq == q+7 {
		t.Fatal("server adopted the client's fictional snapshot identity")
	}
	_ = data

	// In-memory stores have nothing to ship.
	if _, _, _, _, _, err := NewMemory().ReadSnapshot(0, 0, 0, 16); err == nil {
		t.Fatal("in-memory store served a snapshot")
	}
}

// TestSnapshotServesFreshAfterWrites: a zero-identity request must not
// be answered from a stale cached snapshot.
func TestSnapshotServesFreshAfterWrites(t *testing.T) {
	p, _ := buildPrimary(t)
	_, _, s1, _, _, err := p.ReadSnapshot(0, 0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append("emp", fakeTable(1).Tuples); err != nil {
		t.Fatal(err)
	}
	_, _, s2, _, _, err := p.ReadSnapshot(0, 0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s2 <= s1 {
		t.Fatalf("fresh bootstrap served the stale snapshot (seq %d then %d)", s1, s2)
	}
}

// TestEpochSidecarTruncated (satellite): a half-written epoch sidecar
// must mint a fresh epoch — never resume shipping under it.
func TestEpochSidecarTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put("emp", fakeTable(2)); err != nil {
		t.Fatal(err)
	}
	oldEpoch := p.LogEpoch()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, 3, epochV2Len - 1} {
		b, err := os.ReadFile(path + epochSuffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+epochSuffix, b[:keep], 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatalf("truncated-to-%d sidecar refused to open: %v", keep, err)
		}
		got := r.LogEpoch()
		r.Close()
		if got == 0 {
			t.Fatalf("truncated-to-%d sidecar: epoch 0", keep)
		}
		if got == oldEpoch {
			t.Fatalf("truncated-to-%d sidecar: store resumed epoch %d it cannot vouch for", keep, oldEpoch)
		}
		oldEpoch = got
	}
}

// TestEpochSidecarBitFlip (satellite): a bit-flipped sidecar fails its
// checksum and mints a fresh epoch — shipping never resumes under an
// epoch the disk merely resembles.
func TestEpochSidecarBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	oldEpoch := p.LogEpoch()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < epochV2Len; i++ {
		b, err := os.ReadFile(path + epochSuffix)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != epochV2Len {
			t.Fatalf("sidecar is %d bytes, want %d", len(b), epochV2Len)
		}
		b[i] ^= 0x01
		if err := os.WriteFile(path+epochSuffix, b, 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatalf("bit-flipped sidecar (byte %d) refused to open: %v", i, err)
		}
		got := r.LogEpoch()
		r.Close()
		if got == oldEpoch {
			t.Fatalf("byte %d flip: store resumed epoch %d from a checksum-failing sidecar", i, oldEpoch)
		}
		oldEpoch = got
	}
}

// TestEpochSidecarUnchecksummed: an 8-byte sidecar of raw epoch bytes
// carries no checksum to vouch for it, so it mints a fresh epoch — the
// same outcome as a torn one.
func TestEpochSidecarUnchecksummed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	raw := []byte{0, 0, 0, 0, 0, 0, 0xBE, 0xEF}
	if err := os.WriteFile(path+epochSuffix, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.LogEpoch(); got == 0xBEEF || got == 0 {
		t.Fatalf("unchecksummed sidecar: epoch = %#x, want a fresh nonzero one", got)
	}
	if b, _ := os.ReadFile(path + epochSuffix); len(b) != epochV2Len {
		t.Fatalf("sidecar is %d bytes after open, want it rewritten as %d", len(b), epochV2Len)
	}
}

// TestShipBaseSidecarCorruption: a torn or flipped ship-base sidecar
// yields no resume cursor — the follower re-bootstraps instead of
// resuming a cursor the disk cannot vouch for.
func TestShipBaseSidecarCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	err = p.setShipBaseLocked(42, 7)
	p.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if e, s, ok := p.ResumeCursor(); !ok || e != 42 || s != 7 {
		t.Fatalf("ResumeCursor = (%d,%d,%v), want (42,7,true)", e, s, ok)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path + shipBaseSuffix)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, contents []byte) {
		t.Helper()
		if err := os.WriteFile(path+shipBaseSuffix, contents, 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatalf("%s: refused to open: %v", name, err)
		}
		defer r.Close()
		if _, _, ok := r.ResumeCursor(); ok {
			t.Fatalf("%s: store resumed a cursor from an unverifiable sidecar", name)
		}
	}
	check("truncated", good[:len(good)-3])
	check("flipped", flipByte(good, 20))
	check("empty", nil)

	// And the intact sidecar must survive a clean reopen.
	if err := os.WriteFile(path+shipBaseSuffix, good, 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if e, s, ok := r.ResumeCursor(); !ok || e != 42 || s != 7 {
		t.Fatalf("intact sidecar: ResumeCursor = (%d,%d,%v), want (42,7,true)", e, s, ok)
	}
}

// TestDiskFullDegradation is the chaos drill for the disk-full
// contract: when the log cannot grow, the store degrades to refusing
// mutations — it must not corrupt, and what was durable must replay.
func TestDiskFullDegradation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var ff *fault.File
	opts := Options{WrapLog: func(f LogFile) LogFile {
		ff = fault.NewFile(f, fault.FilePlan{FailWriteAfterBytes: 1024})
		return ff
	}}
	p, err := OpenOptions(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put("emp", fakeTable(3)); err != nil {
		t.Fatalf("put within space: %v", err)
	}
	wantRoot, wantN, _, err := p.Root("emp")
	if err != nil {
		t.Fatal(err)
	}
	// Blow the budget: a batch far larger than the remaining space.
	if err := p.Append("emp", fakeTable(200).Tuples); err == nil {
		t.Fatal("append past the disk accepted")
	}
	// Every further mutation must be refused BEFORE touching memory.
	before, err := p.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append("emp", fakeTable(1).Tuples); err == nil {
		t.Fatal("mutation accepted on a full disk")
	}
	if err := p.Put("dept", fakeTable(1)); err == nil {
		t.Fatal("put accepted on a full disk")
	}
	after, err := p.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Tuples) != len(before.Tuples) {
		t.Fatalf("refused mutation leaked into memory: %d tuples then %d", len(before.Tuples), len(after.Tuples))
	}
	if _, err := p.Query("emp", &ph.EncryptedQuery{SchemeID: "storage-test"}); err != nil {
		t.Fatalf("read refused on a full disk: %v", err)
	}
	p.Close()

	// Recovery: reopen (space "freed": no fault). Only what the log's
	// checksums vouch for comes back — bit-identical to pre-overflow.
	r, err := Open(path)
	if err != nil {
		t.Fatalf("reopening after disk-full: %v", err)
	}
	defer r.Close()
	root, n, _, err := r.Root("emp")
	if err != nil {
		t.Fatal(err)
	}
	if n != wantN || !bytes.Equal(root, wantRoot) {
		t.Fatalf("recovered root diverges: %d tuples %x, want %d tuples %x", n, root, wantN, wantRoot)
	}
	if err := r.Append("emp", fakeTable(1).Tuples); err != nil {
		t.Fatalf("store did not recover after reopen: %v", err)
	}
}

// TestWALCrashMidAppend: a crash-at-offset mid-record leaves a torn
// tail that replay truncates; the reopened store is exactly the durable
// prefix.
func TestWALCrashMidAppend(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		path := filepath.Join(t.TempDir(), "wal.log")
		// First pass un-faulted, to learn the full log size.
		p, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Put("emp", fakeTable(3)); err != nil {
			t.Fatal(err)
		}
		if err := p.Append("emp", fakeTable(4).Tuples); err != nil {
			t.Fatal(err)
		}
		full, err := p.LogSize()
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		os.Remove(path)
		os.Remove(path + epochSuffix)

		// Second pass: crash at a seeded offset inside the log.
		crashAt := fault.Point(seed, full-1)
		p, err = OpenOptions(path, Options{WrapLog: func(f LogFile) LogFile {
			return fault.NewFile(f, fault.FilePlan{CrashAtByte: crashAt})
		}})
		if err != nil {
			t.Fatal(err)
		}
		perr := p.Put("emp", fakeTable(3))
		var aerr error
		if perr == nil {
			aerr = p.Append("emp", fakeTable(4).Tuples)
		}
		if perr == nil && aerr == nil {
			t.Fatalf("seed %d: crash at byte %d of %d never surfaced", seed, crashAt, full)
		}
		p.Close()

		r, err := Open(path)
		if err != nil {
			t.Fatalf("seed %d: reopen after crash at %d: %v", seed, crashAt, err)
		}
		// Whatever survived must be a clean record prefix: either no
		// table, the bare put, or put+append — and the log must end at
		// a record boundary (replay truncated the torn tail).
		if tbl, err := r.Get("emp"); err == nil {
			if n := len(tbl.Tuples); n != 3 && n != 7 {
				t.Fatalf("seed %d: recovered %d tuples, want a record-aligned 3 or 7", seed, n)
			}
		}
		if err := r.Append("emp", fakeTable(1).Tuples); err != nil {
			// Acceptable only if the table itself did not survive.
			if _, gerr := r.Get("emp"); gerr == nil {
				t.Fatalf("seed %d: recovered store refuses appends: %v", seed, err)
			}
		}
		r.Close()
	}
}
