package storage

// Snapshot shipping: how followers bootstrap, in O(state) work however
// long the primary's log is. A snapshot is a compacted log behind a
// cursor header — the exact bytes Compact would write, one opStore WAL
// record per table in name order, prefixed by the shipping cursor they
// correspond to and sealed by a CRC — so the installer knows exactly
// where to resume tailing, and a durable installer's new log is the
// snapshot's body verbatim.
//
// Format (all integers big-endian):
//
//	magic "PHSNAP2\x00" | epoch:u64 | seq:u64 | opStore WAL records | totalCRC:u32
//
// totalCRC (Castagnoli, like the WAL's) covers every byte before itself,
// sealing the cursor; each record carries its own WAL CRC and is read by
// the log's own reader (readWALRecord), so a snapshot has no framing of
// its own to parse.
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
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// ShipCursor names a position in a primary's shipping stream: seq
// indexes records of the log file the epoch names (see ship.go).
type ShipCursor struct {
	Epoch uint64
	Seq   uint64
}

const (
	snapMagic  = "PHSNAP2\x00"
	snapHdrLen = 8 + 8 + 8 // magic, epoch, seq
	// snapMinLen is the smallest well-formed snapshot: empty catalogue,
	// header plus trailer CRC.
	snapMinLen = snapHdrLen + 4

	// maxSnapChunk caps the bytes one ReadSnapshot answer carries,
	// whatever budget the (possibly hostile) peer asked for.
	maxSnapChunk = 4 << 20
	// maxSnapshotBytes caps the encoded snapshot an installer will
	// accept or a fetcher will reassemble.
	maxSnapshotBytes = 1 << 30
)

// buildSnapshot encodes the current catalogue under the store's read
// lock plus every table's read lock: Put/Drop/Compact are held off by
// the store lock, appends by the table locks, so the state captured and
// the cursor stamped into the header are one consistent cut. Queries
// proceed throughout.
func (s *Store) buildSnapshot() ([]byte, ShipCursor, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names, unlock := s.lockCatalog(false)
	defer unlock()
	cur := ShipCursor{Epoch: s.epoch}
	if s.wal != nil {
		cur.Seq = s.wal.records()
	}
	buf := binary.BigEndian.AppendUint64([]byte(snapMagic), cur.Epoch)
	w := bytes.NewBuffer(binary.BigEndian.AppendUint64(buf, cur.Seq))
	if _, err := s.writeCatalog(w, names); err != nil {
		return nil, ShipCursor{}, err
	}
	buf = binary.BigEndian.AppendUint32(w.Bytes(), crc32.Checksum(w.Bytes(), castagnoli))
	if len(buf) > maxSnapshotBytes {
		return nil, ShipCursor{}, fmt.Errorf("storage: snapshot of %d bytes exceeds maximum %d", len(buf), maxSnapshotBytes)
	}
	return buf, cur, nil
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

// decodeSnapshot verifies and decodes a fully reassembled snapshot,
// returning its tables in record order, its body — a compacted log —
// and its cursor. Everything is checked before anything is returned:
// the size cap, the magic and the sealing total CRC, then the body
// through the log's own reader — every record a whole opStore record
// that decodeRecord accepts, naming a non-empty table no earlier record
// named, the last one ending exactly at the trailer — so an installer
// can swap state on success knowing no field was believed unchecked.
// Install soundness beyond well-formedness (a cursor from the future)
// is the caller's to judge: the cursor is data here.
func decodeSnapshot(b []byte) (tables []mutation, log []byte, cur ShipCursor, err error) {
	if len(b) > maxSnapshotBytes {
		return nil, nil, ShipCursor{}, fmt.Errorf("storage: snapshot of %d bytes exceeds maximum %d", len(b), maxSnapshotBytes)
	}
	if len(b) < snapMinLen {
		return nil, nil, ShipCursor{}, fmt.Errorf("storage: snapshot truncated: %d bytes", len(b))
	}
	if string(b[:8]) != snapMagic {
		return nil, nil, ShipCursor{}, fmt.Errorf("storage: bad snapshot magic")
	}
	if crc32.Checksum(b[:len(b)-4], castagnoli) != binary.BigEndian.Uint32(b[len(b)-4:]) {
		return nil, nil, ShipCursor{}, fmt.Errorf("storage: snapshot checksum mismatch")
	}
	log = b[snapHdrLen : len(b)-4]
	seen := make(map[string]bool)
	if _, err := eachWALRecord(log, func(op byte, payload []byte) error {
		if op != opStore {
			return fmt.Errorf("op %#x is not a table", op)
		}
		m, err := decodeRecord(op, payload)
		switch {
		case err != nil:
			return err
		case m.name == "":
			return fmt.Errorf("empty table name")
		case seen[m.name]:
			return fmt.Errorf("table %q repeated", m.name)
		}
		seen[m.name] = true
		tables = append(tables, m)
		return nil
	}); err != nil {
		return nil, nil, ShipCursor{}, fmt.Errorf("storage: snapshot body: %w", err)
	}
	return tables, log, ShipCursor{Epoch: binary.BigEndian.Uint64(b[8:]), Seq: binary.BigEndian.Uint64(b[16:])}, nil
}

// InstallSnapshot verifies data as a complete encoded snapshot and, on
// success, atomically replaces the store's entire contents with it,
// returning the embedded cursor the caller resumes tailing from. On ANY
// failure — a byte the checksums disown, a table that will not decode,
// a log rewrite that cannot complete — the store keeps its previous
// state and log, exactly as Compact does.
//
// For a durable store the snapshot's body — already a compacted log —
// is swapped in verbatim as the new log under Compact's rotate
// discipline (temp file, fsync, epoch rotation, rename). Only after the
// swap is the in-memory catalogue replaced and the shipping base
// recorded, so a crash at any point leaves either the old durable state
// or the new one — never a blend.
func (s *Store) InstallSnapshot(data []byte) (ShipCursor, error) {
	tables, log, cur, err := decodeSnapshot(data)
	if err != nil {
		return ShipCursor{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, unlock := s.lockCatalog(true)
	if s.wal != nil {
		//phlint:ignore lockio log rotation is stop-the-world by design: every table is quiesced and the swap must be atomic with the catalogue
		if err := s.rotateLog(uint64(len(tables)), bytes.NewReader(log).WriteTo); err != nil {
			unlock() // the swap was aborted: the entries stay live
			return ShipCursor{}, err
		}
	}
	for _, e := range s.tables {
		e.stale = true // an appender that looked one up retries against the new catalogue
		if s.cache != nil {
			s.cache.InvalidateTable(e.base)
		}
	}
	unlock()
	m := make(map[string]*tableEntry, len(tables))
	for _, t := range tables {
		m[t.name] = newTableEntry(t.slab, s.clock.Add(1))
	}
	s.tables = m
	// A failed sidecar write only costs a re-bootstrap after the next
	// restart; the in-memory base is sound for this process.
	//phlint:ignore lockio the sidecar fsync must run while s.mu freezes the base/log state it records
	_ = s.setShipBaseLocked(cur.Epoch, cur.Seq)
	return cur, nil
}
