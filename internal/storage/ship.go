package storage

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Log shipping: the surface a read replica tails a primary through
// (internal/replica drives it over wire.CmdShipLog).
//
// The write-ahead log is a total order of mutations starting from the
// empty store, and a follower stays current by polling for records past
// its cursor. What it receives is log bytes — whole records exactly as
// the primary's file holds them — read on both sides by the one log
// reader, so the follower checks the CRC the primary wrote. A cursor is
// the pair (epoch, seq): seq indexes records of the current log file,
// and the epoch — a random identifier persisted in a sidecar next to the
// log — names which file that sequence space belongs to. Compact
// rewrites the file, making old sequence numbers meaningless, so it
// rotates the epoch; a follower presenting a cursor from a rotated (or
// otherwise unknown) epoch is answered from (currentEpoch, 0), telling
// it to re-bootstrap instead of silently diverging. A follower
// bootstraps by installing a snapshot — a compacted log behind the
// cursor it corresponds to (see snapshot.go) — O(state) work however
// long the log is. A durable follower additionally persists its
// cursor's provenance in a ship-base sidecar so a restart resumes
// tailing where it left off.
//
// Trust model: replication adds nothing for Eve to learn — shipped
// records are the ciphertext mutations the client already sent — and a
// follower needs no integrity protocol of its own, because a replica
// that replays the same records through the same mutation paths builds
// the same Merkle roots, and the client verifies every replica answer
// against its pinned root exactly as it does the primary's.

// epochSuffix names the sidecar file holding the log's shipping epoch.
const epochSuffix = ".epoch"

// shipBaseSuffix names the sidecar recording where a follower's local
// log sits in its primary's shipping stream (see setShipBaseLocked).
const shipBaseSuffix = ".shipbase"

// maxShipRecords bounds the records one ReadLog answer carries,
// whatever byte budget the (untrusted, possibly hostile) peer asked
// for.
const maxShipRecords = 4096

// randomEpoch draws a fresh nonzero epoch identifier.
func randomEpoch() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("storage: drawing log epoch: %w", err)
	}
	e := binary.BigEndian.Uint64(b[:])
	if e == 0 {
		e = 1 // 0 is reserved for in-memory stores (no log to ship)
	}
	return e, nil
}

// Epoch sidecar format v2: magic "EPC2" | epoch:u64 | crc32c:u32, the
// CRC covering magic+epoch. The checksum is what distinguishes a
// half-written or bit-flipped sidecar from a legitimate rotation: a
// corrupt sidecar mints a FRESH epoch (below), so no follower cursor
// ever resumes against an epoch the disk merely resembles.
const (
	epochMagic   = "EPC2"
	epochV2Len   = 4 + 8 + 4
	epochTmpName = ".tmp"
)

// writeSidecar persists small sidecar contents through a temp file,
// fsync and rename so the sidecar is never half-written in place (a
// crash leaves either the old sidecar or the new one, or a stray .tmp
// that is simply overwritten next time).
func writeSidecar(path string, contents []byte, what string) error {
	tmp := path + epochTmpName
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("storage: creating %s sidecar: %w", what, err)
	}
	if _, err := f.Write(contents); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: writing %s sidecar: %w", what, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: syncing %s sidecar: %w", what, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: closing %s sidecar: %w", what, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: installing %s sidecar: %w", what, err)
	}
	return nil
}

// writeEpoch persists the epoch sidecar for the log at path.
func writeEpoch(path string, epoch uint64) error {
	b := make([]byte, 0, epochV2Len)
	b = append(b, epochMagic...)
	b = binary.BigEndian.AppendUint64(b, epoch)
	crc := crc32.Checksum(b, castagnoli)
	b = binary.BigEndian.AppendUint32(b, crc)
	return writeSidecar(path+epochSuffix, b, "epoch")
}

// loadEpoch reads the log's epoch sidecar, minting (and persisting) a
// fresh epoch when there is none or its contents are unusable — a
// missing file, a truncated (half-written) one, or one whose checksum
// disowns its bytes. A lost or corrupt sidecar therefore just looks
// like a rotation: followers re-bootstrap, and shipping never resumes
// under an epoch the store cannot vouch for.
func loadEpoch(path string) (uint64, error) {
	b, err := os.ReadFile(path + epochSuffix)
	if err == nil && len(b) == epochV2Len && string(b[:4]) == epochMagic &&
		crc32.Checksum(b[:12], castagnoli) == binary.BigEndian.Uint32(b[12:]) {
		if e := binary.BigEndian.Uint64(b[4:12]); e != 0 {
			return e, nil
		}
	}
	if err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("storage: reading epoch sidecar: %w", err)
	}
	e, err := randomEpoch()
	if err != nil {
		return 0, err
	}
	if err := writeEpoch(path, e); err != nil {
		return 0, err
	}
	return e, nil
}

// Ship-base sidecar format: magic "SBC1" | ownEpoch:u64 |
// primaryEpoch:u64 | primarySeq:u64 | localRecs:u64 | crc32c:u32.
//
// It records where a follower's own durable log sits in its primary's
// shipping stream: when the local log held localRecs records, the
// follower's cursor was (primaryEpoch, primarySeq). Every locally
// logged record past localRecs is exactly one applied shipped record,
// so after a restart the cursor resumes at primarySeq + (recs -
// localRecs). ownEpoch binds the sidecar to the local log file it
// describes: any swap of the local log (InstallSnapshot, Compact)
// rotates the local epoch, so a sidecar from a crashed,
// half-finished swap fails the binding check and the follower
// re-bootstraps instead of resuming a cursor that matches neither file.
const (
	shipBaseMagic = "SBC1"
	shipBaseLen   = 4 + 4*8 + 4
)

// shipBase is the in-memory form of the ship-base sidecar.
type shipBase struct {
	primaryEpoch uint64
	primarySeq   uint64
	localRecs    uint64
}

func writeShipBase(path string, ownEpoch uint64, b shipBase) error {
	buf := make([]byte, 0, shipBaseLen)
	buf = append(buf, shipBaseMagic...)
	buf = binary.BigEndian.AppendUint64(buf, ownEpoch)
	buf = binary.BigEndian.AppendUint64(buf, b.primaryEpoch)
	buf = binary.BigEndian.AppendUint64(buf, b.primarySeq)
	buf = binary.BigEndian.AppendUint64(buf, b.localRecs)
	crc := crc32.Checksum(buf, castagnoli)
	buf = binary.BigEndian.AppendUint32(buf, crc)
	return writeSidecar(path+shipBaseSuffix, buf, "ship-base")
}

// loadShipBase reads the ship-base sidecar, returning ok=false for a
// missing, torn, checksum-failing or wrong-epoch sidecar — all of which
// just mean the follower re-bootstraps.
func loadShipBase(path string, ownEpoch uint64) (shipBase, bool) {
	b, err := os.ReadFile(path + shipBaseSuffix)
	if err != nil || len(b) != shipBaseLen || string(b[:4]) != shipBaseMagic {
		return shipBase{}, false
	}
	if crc32.Checksum(b[:shipBaseLen-4], castagnoli) != binary.BigEndian.Uint32(b[shipBaseLen-4:]) {
		return shipBase{}, false
	}
	if binary.BigEndian.Uint64(b[4:12]) != ownEpoch {
		return shipBase{}, false
	}
	return shipBase{
		primaryEpoch: binary.BigEndian.Uint64(b[12:20]),
		primarySeq:   binary.BigEndian.Uint64(b[20:28]),
		localRecs:    binary.BigEndian.Uint64(b[28:36]),
	}, true
}

// setShipBaseLocked records that this store's current contents
// correspond to the primary cursor (primaryEpoch, primarySeq) —
// InstallSnapshot calls it with the snapshot's embedded cursor, holding
// the store lock. For durable stores the base is also persisted in a
// checksummed sidecar bound to the local log's epoch, so a restarted
// follower resumes tailing instead of re-bootstrapping; the in-memory
// base is set whether or not that write succeeds.
func (s *Store) setShipBaseLocked(primaryEpoch, primarySeq uint64) error {
	s.base, s.baseValid = shipBase{primaryEpoch: primaryEpoch, primarySeq: primarySeq}, true
	if s.wal == nil {
		return nil
	}
	s.base.localRecs = s.wal.records()
	return writeShipBase(s.path, s.epoch, s.base)
}

// ResumeCursor returns the shipping cursor this store's contents are
// known to correspond to, for a follower deciding where to resume
// tailing after a restart: (primaryEpoch, primarySeq + records applied
// since the base was recorded). ok is false when no valid base exists —
// a fresh store, a torn or stale sidecar, or a local log shorter than
// the base claims (a torn tail truncated into the snapshot region) —
// and the follower must re-bootstrap.
func (s *Store) ResumeCursor() (epoch, seq uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.baseValid {
		return 0, 0, false
	}
	var recs uint64
	if s.wal != nil {
		recs = s.wal.records()
	} else {
		recs = s.base.localRecs
	}
	if recs < s.base.localRecs {
		return 0, 0, false
	}
	return s.base.primaryEpoch, s.base.primarySeq + (recs - s.base.localRecs), true
}

// LogEpoch returns the current log-shipping epoch (0 for in-memory
// stores, which have no log to ship).
func (s *Store) LogEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// LogHead returns the current epoch and the log's record count — the
// cursor at which a follower is caught up. Zero values for in-memory
// stores.
func (s *Store) LogHead() (epoch, head uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.wal == nil {
		return 0, 0
	}
	return s.epoch, s.wal.records()
}

// ReadLog serves one log-shipping poll: whole records of the current log
// file starting at the cursor (reqEpoch, from), exactly as the file holds
// them, at most maxBytes of them (clamped; at least one record is
// shipped when any is available, so a single huge record cannot stall a
// follower forever). It returns the epoch and start sequence actually
// served, plus the log's record head. A cursor ReadLog cannot honour — a
// rotated epoch, or a sequence past the head — is answered from
// (currentEpoch, 0), telling the follower to re-bootstrap; a follower
// therefore fetches a snapshot whenever the reply's epoch or start
// differs from its cursor.
//
// Concurrency: the epoch is read under the store's read lock before and
// after the file scan. Compact holds the store lock exclusively across
// its file swap and epoch bump, so equal epochs either side of the scan
// prove the bytes scanned all belong to the file the cursor names; on a
// mismatch the scan is discarded and the follower told to re-bootstrap.
// The scan itself runs on a private read handle with no store lock
// held, so shipping never blocks queries or mutations. Racing appends
// are safe: the scanner stops at the first torn or CRC-failing record,
// and the head it reports never exceeds what the writer had accepted at
// lock time.
func (s *Store) ReadLog(reqEpoch, from uint64, maxBytes uint32) (log []byte, epoch, start, head uint64, err error) {
	s.mu.RLock()
	if s.wal == nil {
		s.mu.RUnlock()
		return nil, 0, 0, 0, fmt.Errorf("storage: in-memory store has no log to ship")
	}
	e1 := s.epoch
	head = s.wal.records()
	if reqEpoch != e1 || from > head {
		from = 0 // rotated or bogus cursor: answer from the log's origin
	}
	start = from
	f, err := os.Open(s.path)
	s.mu.RUnlock()
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("storage: opening log for shipping: %w", err)
	}
	defer f.Close()

	// Resume at the cached byte offset when the cursor matches; offsets
	// are only valid within one epoch, and a stale one past a torn-tail
	// truncation just reads EOF and ships nothing this round.
	off, skip := int64(0), from
	s.shipMu.Lock()
	if s.shipEpoch == e1 && s.shipSeq == from {
		off, skip = s.shipOff, 0
	}
	s.shipMu.Unlock()

	log, n, nextOff, err := scanShipRecords(f, off, skip, min(head-from, maxShipRecords), maxBytes)
	if err != nil {
		return nil, 0, 0, 0, err
	}

	// Re-check the epoch: if Compact swapped the file mid-scan, the bytes
	// read may straddle two files. Discard and tell the follower to
	// re-bootstrap against the new epoch.
	s.mu.RLock()
	e2 := s.epoch
	head2 := s.wal.records()
	s.mu.RUnlock()
	if e2 != e1 {
		return nil, e2, 0, head2, nil
	}
	if n > 0 {
		s.shipMu.Lock()
		s.shipEpoch, s.shipSeq, s.shipOff = e1, from+n, nextOff
		s.shipMu.Unlock()
	}
	return log, e1, start, head, nil
}

// scanShipRecords reads up to want records from the log file starting
// at byte offset off, first skipping skip records, stopping early once
// the records exceed maxBytes (but never before the first one). The
// log reader ends the scan at anything it cannot vouch for — a torn
// header, a CRC mismatch, a concurrent append's half-written tail; the
// follower just gets a shorter chunk and polls again. It returns the
// records as the file holds them, how many there are, and the byte
// offset one past the last.
func scanShipRecords(f *os.File, off int64, skip, want uint64, maxBytes uint32) (log []byte, n uint64, nextOff int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("storage: stat log for shipping: %w", err)
	}
	size, budget := info.Size(), max(int(maxBytes), 1)
	br := bufio.NewReaderSize(io.NewSectionReader(f, off, max(size-off, 0)), 1<<16)
	for nextOff = off; n < want; {
		next, ok := readWALRecord(br, size-nextOff, log)
		if !ok {
			break
		}
		if skip > 0 {
			skip--
			nextOff += int64(len(next)) // nothing is kept while skipping
			log = next[:0]
			continue
		}
		if n > 0 && len(next) > budget {
			break
		}
		nextOff += int64(len(next) - len(log))
		log, n = next, n+1
	}
	return log, n, nextOff, nil
}

// ApplyShipped applies a shipped chunk (whole log records, as ReadLog
// returns them) one record at a time through the store's normal
// mutation paths — PutSlab, AppendRuns, Drop — so locking, versioning, cache
// invalidation and incremental authenticated-index maintenance all
// behave exactly as if the mutation arrived from a client. That is what
// makes a follower's Merkle roots bit-identical to the primary's: same
// tuple bytes, same leaf hashes, same tree. The chunk is read with the
// log's own reader, so the CRC the primary wrote is checked here. It
// returns how many records were applied; any error (a byte the reader
// cannot vouch for, a malformed payload, an insert into a table the
// follower does not have) means the follower's view has diverged and it
// must re-bootstrap.
func (s *Store) ApplyShipped(log []byte) (applied int, err error) {
	applied, err = eachWALRecord(log, func(op byte, payload []byte) error {
		m, err := decodeRecord(op, payload)
		if err != nil {
			return err
		}
		switch op {
		case opStore:
			return s.PutSlab(m.name, m.slab)
		case opInsert:
			_, _, err := s.AppendRuns(m.name, m.runs)
			return err
		default:
			return s.Drop(m.name)
		}
	})
	if err != nil {
		return applied, fmt.Errorf("storage: shipped chunk: %w", err)
	}
	return applied, nil
}
