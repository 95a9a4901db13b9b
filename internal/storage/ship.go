package storage

import (
	"bufio"
	"cmp"
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
// and the epoch — a random identifier in the file's own header — names
// which file that sequence space belongs to. Compact rewrites the file,
// making old sequence numbers meaningless, so it rotates the epoch; a
// follower presenting a cursor from a rotated (or otherwise unknown)
// epoch is answered from (currentEpoch, 0), telling it to re-bootstrap
// instead of silently diverging. A follower bootstraps by installing a
// snapshot — a compacted log behind the cursor it corresponds to (see
// snapshot.go) — O(state) work however long the log is. A durable
// follower's log header also carries that cursor, its ship base, so a
// restart resumes tailing where it left off.
//
// Trust model: replication adds nothing for Eve to learn — shipped
// records are the ciphertext mutations the client already sent — and a
// follower needs no integrity protocol of its own, because a replica
// that replays the same records through the same mutation body builds
// the same Merkle roots, and the client verifies every replica answer
// against its pinned root exactly as it does the primary's.

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

// Log header: every log file starts with one fixed block, ahead of its
// records (all integers big-endian):
//
//	magic "PHL1" | epoch:u64 | baseEpoch:u64 | baseSeq:u64 | baseRecs:u64 | crc32c:u32
//
// The CRC covers every byte before it. The ship base says where the
// file sits in a primary's shipping stream: when it held baseRecs
// records, a follower's cursor was (baseEpoch, baseSeq), and every
// record past those is one applied shipped record, so after a restart
// the cursor resumes at baseSeq + (recs - baseRecs). A base epoch of 0
// is no base — no primary's epoch is 0. The header is written once, as
// the file is created (Open, or rotateLog's temp file), so the rename
// that installs a rotated log swaps epoch, base and records in one
// step. A header the checksum disowns costs its epoch and base, never
// its records: they replay, and Open rotates the log under a fresh
// epoch with no base, so no follower cursor ever resumes against a
// header the disk merely resembles. The magic's first byte is not
// walMagic, so a log written before the header — which starts with a
// record — is told apart and refused.
const (
	logMagic  = "PHL1"
	logHdrLen = 4 + 4*8 + 4
)

// shipBase is a log header's ship base.
type shipBase struct {
	primaryEpoch uint64
	primarySeq   uint64
	localRecs    uint64
}

// appendLogHeader appends the header of a log with the given epoch and
// ship base to dst.
func appendLogHeader(dst []byte, epoch uint64, b shipBase) []byte {
	dst = append(dst, logMagic...)
	for _, v := range [...]uint64{epoch, b.primaryEpoch, b.primarySeq, b.localRecs} {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[len(dst)-logHdrLen+4:], castagnoli))
}

// parseLogHeader reads a log header, returning epoch 0 when the magic
// or the checksum disowns it.
func parseLogHeader(h [logHdrLen]byte) (epoch uint64, b shipBase) {
	if string(h[:4]) != logMagic || crc32.Checksum(h[:logHdrLen-4], castagnoli) != binary.BigEndian.Uint32(h[logHdrLen-4:]) {
		return 0, shipBase{}
	}
	u := func(i int) uint64 { return binary.BigEndian.Uint64(h[4+8*i:]) }
	return u(0), shipBase{primaryEpoch: u(1), primarySeq: u(2), localRecs: u(3)}
}

// ResumeCursor returns the shipping cursor this store's contents are
// known to correspond to, for a follower deciding where to resume
// tailing after a restart: (primaryEpoch, primarySeq + records applied
// since the base was recorded). ok is false when no valid base exists —
// a fresh or compacted store, a header the checksum disowns, or a local
// log shorter than the base claims (a torn tail truncated into the
// snapshot region) — and the follower must re-bootstrap.
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
// differs from its cursor. While the log has failed it ships nothing:
// the head may count a record the log refused, which would never ship.
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
	if err := s.LogErr(); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("storage: no log shipping while the log has failed: %w", err)
	}
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
	off, skip := int64(logHdrLen), from
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
// returns them) one record at a time through the one body every mutation
// takes (apply), so locking, versioning, cache invalidation and
// incremental authenticated-index maintenance all behave exactly as if
// the mutation arrived from a client, and a durable follower logs each
// record as it arrived. That is what makes a follower's Merkle roots
// bit-identical to the primary's: same tuple bytes, same leaf hashes,
// same tree. The chunk is read with the log's own reader, so the CRC
// the primary wrote is checked here. The chunk waits for durability
// once, for its last record — group commit covers the ones before it —
// and returns how many records were applied; any error (a byte the
// reader cannot vouch for, a malformed payload, an insert into a table
// the follower does not have, a failed durability wait) means the
// follower's view has diverged and it must re-bootstrap.
func (s *Store) ApplyShipped(log []byte) (applied int, err error) {
	var last uint64
	applied, err = eachWALRecord(log, func(op byte, payload []byte) error {
		_, seq, err := s.apply(op, payload)
		last = max(last, seq)
		return err
	})
	if err = cmp.Or(err, s.durable(last)); err != nil {
		return applied, fmt.Errorf("storage: shipped chunk: %w", err)
	}
	return applied, nil
}
