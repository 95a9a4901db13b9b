package storage

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wire"
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

// tailedFollower opens a durable follower on a fresh path holding a
// table of its own, installs p's snapshot and applies the k records p
// appends after it, returning the follower, its path and the snapshot's
// cursor.
func tailedFollower(t *testing.T, p *Store, k int) (*Store, string, ShipCursor) {
	t.Helper()
	snap, cur, err := p.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "follower.log")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := f.Put("stale", fakeTable(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for range k {
		if err := p.Append("dept", fakeTable(1).Tuples); err != nil {
			t.Fatal(err)
		}
	}
	log, _, _, _, err := p.ReadLog(cur.Epoch, cur.Seq, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.ApplyShipped(log); err != nil || n != k {
		t.Fatalf("applied %d records shipped from the snapshot cursor (%v), want %d", n, err, k)
	}
	assertSameState(t, p, f)
	return f, path, cur
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
	assertSameState(t, p, f)
	if e, s, ok := f.ResumeCursor(); !ok || e != cur.Epoch || s != cur.Seq {
		t.Fatalf("ResumeCursor = (%d,%d,%v), want (%d,%d,true)", e, s, ok, cur.Epoch, cur.Seq)
	}
}

// The byte format of buildPrimary's catalogue: its log's records as
// written, and after Compact. Both are pinned so a change to the record
// format — or to which records Compact writes — cannot pass unnoticed.
const (
	primaryLogSHA256       = "1d36f6ffa346817f33da127222c12899983b5c5f1bc667fd931e0d9318063567"
	primaryCompactedSHA256 = "d4cd4fe993586744b60b21e4b800e056cee6fd3915c02822520c176444c6c052"
)

// TestSnapshotBodyIsCompactedLog pins the single record format: for one
// catalogue, the primary's log records after Compact are exactly the
// record section of its snapshot, and a durable follower that installs
// that snapshot holds log records byte-identical to it — and to the
// pinned bytes.
func TestSnapshotBodyIsCompactedLog(t *testing.T) {
	p, path := buildPrimary(t)
	digest := func(what, path, want string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b = b[logHdrLen:]
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
	assertSameState(t, p, f)
}

// TestSnapshotInstallDurable pins the durable follower path: the
// snapshot's contents survive the follower's own restart, and so does
// the resume cursor — advanced by the records applied after install.
func TestSnapshotInstallDurable(t *testing.T) {
	p, _ := buildPrimary(t)
	f, fpath, cur := tailedFollower(t, p, 1)
	if _, err := f.Get("stale"); err == nil {
		t.Fatal("install kept a table the snapshot does not contain")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(fpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	assertSameState(t, p, f2)
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
	assertSameState(t, p, f)

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

// closedLog opens a durable store at a fresh path, stores a table and
// closes it, returning the log's path, epoch and tables.
func closedLog(t *testing.T) (string, uint64, []wire.TableInfo) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put("emp", fakeTable(2)); err != nil {
		t.Fatal(err)
	}
	epoch, tables := p.LogEpoch(), p.List()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return path, epoch, tables
}

// damageHeader rewrites the log at path with damage done to its header.
func damageHeader(t *testing.T, path string, damage func(hdr []byte)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage(b[:logHdrLen])
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
}

// reopensFresh opens the log at path, whose header the checksum
// disowns, and checks that it comes back under a fresh nonzero epoch
// other than old, with no resume cursor and its tables whole, and that
// a second open keeps that epoch: the rotation made it durable. It
// returns the epoch.
func reopensFresh(t *testing.T, path, what string, old uint64, tables []wire.TableInfo) uint64 {
	t.Helper()
	var epochs [2]uint64
	for i := range epochs {
		r, err := Open(path)
		if err != nil {
			t.Fatalf("%s: refused to open: %v", what, err)
		}
		_, _, resumed := r.ResumeCursor()
		epochs[i] = r.LogEpoch()
		got := r.List()
		r.Close()
		switch {
		case epochs[i] == 0 || epochs[i] == old:
			t.Fatalf("%s: epoch %#x, want a fresh nonzero one: the store resumed an epoch it cannot vouch for", what, epochs[i])
		case resumed:
			t.Fatalf("%s: store resumed a cursor from a header it cannot vouch for", what)
		case !reflect.DeepEqual(got, tables):
			t.Fatalf("%s: the records did not survive: %v, want %v", what, got, tables)
		}
	}
	if epochs[0] != epochs[1] {
		t.Fatalf("%s: epoch %#x, then %#x on the next open: the fresh header was not written", what, epochs[0], epochs[1])
	}
	return epochs[0]
}

// TestEpochSidecarTruncated: a half-written log header — its tail never
// reached the disk — mints a fresh epoch, never resuming shipping under
// it, and the records behind it survive. A new log torn inside its
// header has nothing behind it, and opens empty under a fresh epoch.
func TestEpochSidecarTruncated(t *testing.T) {
	path, epoch, tables := closedLog(t)
	for _, keep := range []int{0, 3, logHdrLen - 4} {
		damageHeader(t, path, func(h []byte) { clear(h[keep:]) })
		epoch = reopensFresh(t, path, fmt.Sprintf("header torn at byte %d", keep), epoch, tables)
	}
	for _, keep := range []int{0, 3, logHdrLen - 1} {
		torn := filepath.Join(t.TempDir(), "new.log")
		if err := os.WriteFile(torn, appendLogHeader(nil, epoch, shipBase{})[:keep], 0o600); err != nil {
			t.Fatal(err)
		}
		reopensFresh(t, torn, fmt.Sprintf("new log torn at byte %d", keep), epoch, []wire.TableInfo{})
	}
}

// TestEpochSidecarBitFlip: a bit flipped anywhere in the log header
// fails its checksum and mints a fresh epoch — shipping never resumes
// under an epoch the disk merely resembles — and the records survive.
func TestEpochSidecarBitFlip(t *testing.T) {
	path, epoch, tables := closedLog(t)
	for i := 0; i < logHdrLen; i++ {
		damageHeader(t, path, func(h []byte) { h[i] ^= 0x01 })
		epoch = reopensFresh(t, path, fmt.Sprintf("byte %d flipped", i), epoch, tables)
	}
}

// TestEpochSidecarUnchecksummed: a header slot holding raw epoch bytes
// carries no checksum to vouch for them, so the log opens under a fresh
// epoch — the same outcome as a torn header — with its records, and
// its header rewritten whole.
func TestEpochSidecarUnchecksummed(t *testing.T) {
	path, epoch, tables := closedLog(t)
	damageHeader(t, path, func(h []byte) {
		clear(h)
		copy(h, []byte{0, 0, 0, 0, 0, 0, 0xBE, 0xEF})
	})
	if got := reopensFresh(t, path, "unchecksummed header", 0xBEEF, tables); got == epoch {
		t.Fatalf("unchecksummed header: the store kept epoch %#x", got)
	}
}

// TestShipBaseSidecarCorruption: a torn or flipped ship base in a
// follower's log header yields no resume cursor — the follower
// re-bootstraps instead of resuming a cursor the disk cannot vouch
// for — and the records survive.
func TestShipBaseSidecarCorruption(t *testing.T) {
	p, _ := buildPrimary(t)
	f, path, cur := tailedFollower(t, p, 1)
	epoch, tables := f.LogEpoch(), f.List()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		damage func(h []byte)
	}{
		{"truncated", func(h []byte) { clear(h[logHdrLen-4:]) }},
		{"flipped", func(h []byte) { h[20] ^= 0x40 }},
		{"empty", func(h []byte) { clear(h[12:]) }},
	} {
		if err := os.WriteFile(path, good, 0o600); err != nil {
			t.Fatal(err)
		}
		damageHeader(t, path, c.damage)
		reopensFresh(t, path, c.name, epoch, tables)
	}

	// And the intact header must survive a clean reopen.
	if err := os.WriteFile(path, good, 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if e, s, ok := r.ResumeCursor(); !ok || e != cur.Epoch || s != cur.Seq+1 || r.LogEpoch() != epoch {
		t.Fatalf("intact header: ResumeCursor = (%d,%d,%v) under epoch %#x, want (%d,%d,true) under %#x", e, s, ok, r.LogEpoch(), cur.Epoch, cur.Seq+1, epoch)
	}
}

// TestLogFileCarriesItsCursor: the log file alone carries a store's
// shipping epoch and resume cursor. A copy of the log of (a) a
// compacted primary and (b) a durable follower that installed a
// snapshot and then applied k records reopens elsewhere under the same
// epoch and cursor — none, and (epoch, seq + k) — with the same tables.
// And no store leaves a file beside its log.
func TestLogFileCarriesItsCursor(t *testing.T) {
	p, ppath := buildPrimary(t)
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	const k = 3
	f, fpath, cur := tailedFollower(t, p, k)
	for _, c := range []struct {
		what string
		st   *Store
		path string
		ok   bool
		seq  uint64
	}{
		{"compacted primary", p, ppath, false, 0},
		{"follower", f, fpath, true, cur.Seq + k},
	} {
		if ents, err := os.ReadDir(filepath.Dir(c.path)); err != nil || len(ents) != 1 {
			t.Fatalf("%s: the log's directory holds %v (%v), want the log alone", c.what, ents, err)
		}
		b, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		copied := filepath.Join(t.TempDir(), "copy.log")
		if err := os.WriteFile(copied, b, 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := Open(copied)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got, want := r.LogEpoch(), c.st.LogEpoch(); got != want {
			t.Fatalf("%s: the copy opened under epoch %#x, the log's is %#x", c.what, got, want)
		}
		if e, s, ok := r.ResumeCursor(); ok != c.ok || ok && (e != cur.Epoch || s != c.seq) {
			t.Fatalf("%s: the copy resumes at (%d,%d,%v), want (%d,%d,%v)", c.what, e, s, ok, cur.Epoch, c.seq, c.ok)
		}
		assertSameState(t, c.st, r)
	}
}
