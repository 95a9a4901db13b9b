package storage

// Snapshot shipping: how followers bootstrap, in O(state) work however
// long the primary's log is. A snapshot is a self-verifying byte string
// — every field that steers decoding is checksummed before it is
// believed — that captures the catalogue at one shipping cursor and
// embeds that cursor, so the installer knows exactly where to resume
// tailing.
//
// Format (all integers big-endian):
//
//	header:   magic "PHSNAP1\x00" | epoch:u64 | seq:u64 | count:u32 | hdrCRC:u32
//	records:  count × ( len:u32 | payload | payCRC:u32 )
//	trailer:  totalCRC:u32
//
// hdrCRC (Castagnoli, like the WAL's) covers the header bytes before
// it; payCRC covers one record's payload; totalCRC covers every byte
// before itself, sealing the whole string. A record payload is exactly
// an opStore WAL payload — name then encoded table — which is what lets
// a durable installer write the snapshot's tables straight back out as
// its own fresh log.
//
// Transfer is chunked and resumable: ReadSnapshot serves byte ranges of
// one immutable encoded snapshot, identified by its embedded cursor. A
// fetcher that presents the identity it is mid-transfer on keeps
// getting bytes of that same string across torn connections and
// reconnects; when the server no longer holds that snapshot it answers
// with a fresh one from offset 0 and the fetcher restarts — offsets are
// meaningless across identities. Verification happens only over the
// fully reassembled string, so a chunk lost or mangled in flight can at
// worst fail the install, never corrupt it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"repro/internal/cache"
	"repro/internal/ph"
	"repro/internal/wire"
)

// ShipCursor names a position in a primary's shipping stream: seq
// indexes records of the log file the epoch names (see ship.go).
type ShipCursor struct {
	Epoch uint64
	Seq   uint64
}

const (
	snapMagic  = "PHSNAP1\x00"
	snapHdrLen = 8 + 8 + 8 + 4 + 4 // magic, epoch, seq, count, hdrCRC
	// snapMinLen is the smallest well-formed snapshot: empty catalogue,
	// header plus trailer CRC.
	snapMinLen = snapHdrLen + 4

	// maxSnapTables caps the declared table count before any allocation
	// trusts it. The real bound is maxSnapshotBytes / bytes-per-record;
	// this just keeps a hostile count from sizing slices.
	maxSnapTables = 1 << 20
	// maxSnapChunk caps the bytes one ReadSnapshot answer carries,
	// whatever budget the (possibly hostile) peer asked for.
	maxSnapChunk = 4 << 20
	// maxSnapshotBytes caps the encoded snapshot an installer will
	// accept or a fetcher will reassemble.
	maxSnapshotBytes = 1 << 30
)

// snapRecord is one decoded snapshot record: the table, its name, and
// the raw payload bytes (reused verbatim as an opStore WAL payload by
// the durable install path).
type snapRecord struct {
	name    string
	table   *ph.EncryptedTable
	payload []byte
}

// buildSnapshot encodes the current catalogue under the store's read
// lock plus every table's read lock (sorted): Put/Drop/Compact are held
// off by the store lock, appends by the table locks, so the state
// captured and the cursor stamped into the header are one consistent
// cut. Queries proceed throughout.
func (s *Store) buildSnapshot() ([]byte, ShipCursor, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := s.tables[name]
		e.mu.RLock()
		defer e.mu.RUnlock()
	}
	cur := ShipCursor{Epoch: s.epoch}
	if s.wal != nil {
		cur.Seq = s.wal.records()
	}
	buf := make([]byte, 0, snapMinLen)
	buf = append(buf, snapMagic...)
	buf = binary.BigEndian.AppendUint64(buf, cur.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, cur.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(names)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	for _, name := range names {
		e := s.tables[name]
		payload := wire.AppendString(nil, name)
		payload = wire.EncodeTable(payload, e.t)
		// The same cap Compact enforces: a record above the frame cap
		// would be rejected on decode, so refuse to emit it.
		if len(payload) > wire.MaxFrameSize {
			return nil, ShipCursor{}, fmt.Errorf("storage: table %q snapshots to %d bytes, above the %d-byte record cap", name, len(payload), wire.MaxFrameSize)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
		buf = append(buf, payload...)
		buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	if len(buf) > maxSnapshotBytes {
		return nil, ShipCursor{}, fmt.Errorf("storage: snapshot of %d bytes exceeds maximum %d", len(buf), maxSnapshotBytes)
	}
	return buf, cur, nil
}

// WriteSnapshot encodes a consistent snapshot of the catalogue to w and
// returns the shipping cursor it corresponds to. The write happens
// outside all store locks.
func (s *Store) WriteSnapshot(w io.Writer) (ShipCursor, error) {
	buf, cur, err := s.buildSnapshot()
	if err != nil {
		return ShipCursor{}, err
	}
	if _, err := w.Write(buf); err != nil {
		return ShipCursor{}, fmt.Errorf("storage: writing snapshot: %w", err)
	}
	return cur, nil
}

// ReadSnapshot serves one chunk of an encoded snapshot for a
// bootstrapping follower. The identity (reqEpoch, reqSeq) names the
// snapshot the fetcher is mid-transfer on; the zero identity asks for a
// fresh snapshot. When the identified snapshot is still held, bytes
// [offset, offset+budget) of it are returned; otherwise a fresh
// snapshot is built and its first chunk returned under its own identity
// — the fetcher sees the identity change and restarts reassembly.
// maxBytes is clamped to maxSnapChunk and offsets past the end return
// an empty chunk, so no request shape extracts an oversized answer.
func (s *Store) ReadSnapshot(reqEpoch, reqSeq, offset uint64, maxBytes uint32) (data []byte, epoch, seq, total, off uint64, err error) {
	if s.wal == nil {
		return nil, 0, 0, 0, 0, fmt.Errorf("storage: in-memory store has no log to ship")
	}
	s.snapMu.Lock()
	buf, e, q := s.snapBuf, s.snapEpoch, s.snapSeq
	s.snapMu.Unlock()
	fresh := reqEpoch == 0 && reqSeq == 0
	if buf == nil || (fresh && offset == 0) || (!fresh && (reqEpoch != e || reqSeq != q)) {
		// Build outside snapMu: building takes the store and table
		// locks, and snapMu is ordered after them.
		var cur ShipCursor
		buf, cur, err = s.buildSnapshot()
		if err != nil {
			return nil, 0, 0, 0, 0, err
		}
		e, q = cur.Epoch, cur.Seq
		s.snapMu.Lock()
		s.snapBuf, s.snapEpoch, s.snapSeq = buf, e, q
		s.snapMu.Unlock()
		if !fresh && (reqEpoch != e || reqSeq != q) {
			// A genuinely different snapshot: the fetcher's offset is
			// void. A rebuild under the *same* identity — a restarted
			// primary whose replayed log pins the same (epoch, seq) —
			// reproduces the same bytes (the encoding is deterministic),
			// so a mid-transfer offset stays valid and resume holds.
			offset = 0
		}
	}
	total = uint64(len(buf))
	if offset > total {
		offset = total
	}
	budget := uint64(maxBytes)
	if budget == 0 || budget > maxSnapChunk {
		budget = maxSnapChunk
	}
	if budget > total-offset {
		budget = total - offset
	}
	return buf[offset : offset+budget], e, q, total, offset, nil
}

// decodeSnapshot verifies and decodes a fully reassembled snapshot.
// Everything is checked before anything is returned — magic, header
// CRC, declared count against hard caps, every record's length and
// payload CRC, the sealing total CRC, exact end-of-input, and that
// every payload decodes to a well-formed named table with no trailing
// bytes — so an installer can swap state on success knowing no field
// was believed unchecked. Install soundness beyond well-formedness
// (a cursor from the future) is the caller's to judge: the cursor is
// data here.
func decodeSnapshot(b []byte) ([]snapRecord, ShipCursor, error) {
	if len(b) > maxSnapshotBytes {
		return nil, ShipCursor{}, fmt.Errorf("storage: snapshot of %d bytes exceeds maximum %d", len(b), maxSnapshotBytes)
	}
	if len(b) < snapMinLen {
		return nil, ShipCursor{}, fmt.Errorf("storage: snapshot truncated: %d bytes", len(b))
	}
	if string(b[:8]) != snapMagic {
		return nil, ShipCursor{}, fmt.Errorf("storage: bad snapshot magic")
	}
	if crc32.Checksum(b[:snapHdrLen-4], castagnoli) != binary.BigEndian.Uint32(b[snapHdrLen-4:]) {
		return nil, ShipCursor{}, fmt.Errorf("storage: snapshot header checksum mismatch")
	}
	cur := ShipCursor{Epoch: binary.BigEndian.Uint64(b[8:]), Seq: binary.BigEndian.Uint64(b[16:])}
	count := binary.BigEndian.Uint32(b[24:])
	if count > maxSnapTables {
		return nil, ShipCursor{}, fmt.Errorf("storage: snapshot declares %d tables, above the %d cap", count, maxSnapTables)
	}
	if crc32.Checksum(b[:len(b)-4], castagnoli) != binary.BigEndian.Uint32(b[len(b)-4:]) {
		return nil, ShipCursor{}, fmt.Errorf("storage: snapshot total checksum mismatch")
	}
	body := b[snapHdrLen : len(b)-4]
	recs := make([]snapRecord, 0, wire.ClampCount(count, 1024))
	seen := make(map[string]bool, wire.ClampCount(count, 1024))
	for i := uint32(0); i < count; i++ {
		if len(body) < 4 {
			return nil, ShipCursor{}, fmt.Errorf("storage: snapshot record %d: truncated length", i)
		}
		n := binary.BigEndian.Uint32(body)
		if n > wire.MaxFrameSize {
			return nil, ShipCursor{}, fmt.Errorf("storage: snapshot record %d: %d bytes exceeds the %d-byte record cap", i, n, wire.MaxFrameSize)
		}
		if uint64(len(body)) < 4+uint64(n)+4 {
			return nil, ShipCursor{}, fmt.Errorf("storage: snapshot record %d: truncated payload", i)
		}
		payload := body[4 : 4+n]
		if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(body[4+n:]) {
			return nil, ShipCursor{}, fmt.Errorf("storage: snapshot record %d: payload checksum mismatch", i)
		}
		body = body[4+n+4:]
		r := wire.NewBuffer(payload)
		name, err := r.String()
		if err != nil {
			return nil, ShipCursor{}, fmt.Errorf("storage: snapshot record %d: %w", i, err)
		}
		if name == "" {
			return nil, ShipCursor{}, fmt.Errorf("storage: snapshot record %d: empty table name", i)
		}
		if seen[name] {
			return nil, ShipCursor{}, fmt.Errorf("storage: snapshot repeats table %q", name)
		}
		seen[name] = true
		t, err := wire.DecodeTable(r)
		if err != nil {
			return nil, ShipCursor{}, fmt.Errorf("storage: snapshot record %d (%q): %w", i, name, err)
		}
		if r.Remaining() != 0 {
			return nil, ShipCursor{}, fmt.Errorf("storage: snapshot record %d (%q): %d trailing payload bytes", i, name, r.Remaining())
		}
		recs = append(recs, snapRecord{name: name, table: t, payload: payload})
	}
	if len(body) != 0 {
		return nil, ShipCursor{}, fmt.Errorf("storage: %d snapshot bytes past the declared %d records", len(body), count)
	}
	return recs, cur, nil
}

// InstallSnapshot verifies data as a complete encoded snapshot and, on
// success, atomically replaces the store's entire contents with it,
// returning the embedded cursor the caller resumes tailing from. On ANY
// failure — a byte the checksums disown, a table that will not decode,
// a log rewrite that cannot complete — the store keeps its previous
// state and log, exactly as Compact does.
//
// For a durable store the snapshot's tables are first written out as a
// fresh log (one store record each) and swapped in under the rotate
// discipline of Compact: temp file, fsync, epoch rotation, rename. Only
// after the swap is the in-memory catalogue replaced and the shipping
// base recorded, so a crash at any point leaves either the old durable
// state or the new one — never a blend.
func (s *Store) InstallSnapshot(data []byte) (ShipCursor, error) {
	recs, cur, err := decodeSnapshot(data)
	if err != nil {
		return ShipCursor{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.lockAllEntries()
	if s.wal != nil {
		tmpPath := s.path + ".snapinstall"
		tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			unlockEntries(entries, false)
			return ShipCursor{}, fmt.Errorf("storage: creating snapshot-install log: %w", err)
		}
		var buf []byte
		var size int64
		for _, rec := range recs {
			buf = appendWALRecord(buf[:0], opStore, rec.payload)
			if _, err := tmp.Write(buf); err != nil {
				_ = tmp.Close()
				os.Remove(tmpPath)
				unlockEntries(entries, false)
				return ShipCursor{}, fmt.Errorf("storage: writing snapshot-install log: %w", err)
			}
			size += int64(len(buf))
		}
		//phlint:ignore lockio log rotation is stop-the-world by design: every table is quiesced and the swap must be atomic with the catalogue
		if err := s.rotateLog(tmp, tmpPath, size, uint64(len(recs))); err != nil {
			unlockEntries(entries, false)
			return ShipCursor{}, err
		}
	}
	unlockEntries(entries, true)
	m := make(map[string]*tableEntry, len(recs))
	for _, rec := range recs {
		m[rec.name] = newTableEntry(rec.table, s.clock.Add(1))
	}
	s.tables = m
	if s.cache != nil {
		s.cache = cache.New(0)
	}
	if s.wal == nil {
		// The durable path's rotateLog already dropped the serving cache.
		s.snapMu.Lock()
		s.snapBuf = nil
		s.snapMu.Unlock()
	}
	// A failed sidecar write only costs a re-bootstrap after the next
	// restart; the in-memory base is sound for this process.
	//phlint:ignore lockio the sidecar fsync must run while s.mu freezes the base/log state it records
	_ = s.setShipBaseLocked(cur.Epoch, cur.Seq)
	return cur, nil
}
