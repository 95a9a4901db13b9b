package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// fuzzStorePayload builds a valid opStore payload for a tiny table.
func fuzzStorePayload(name string, tuples int) []byte {
	p := wire.AppendString(nil, name)
	return wire.EncodeTable(p, fakeTable(tuples))
}

// fuzzInsertPayload builds a valid opInsert payload.
func fuzzInsertPayload(name string, tuples int) []byte {
	p := wire.AppendString(nil, name)
	p = wire.AppendU32(p, uint32(tuples))
	for _, tp := range fakeTable(tuples).Tuples {
		p = wire.EncodeTuple(p, tp)
	}
	return p
}

// v0Record frames bytes in the shape len:u32 | op:u8 | payload — no
// magic, no checksum. The log reader must reject them at the boundary.
func v0Record(op byte, payload []byte) []byte {
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	rec = append(rec, op)
	return append(rec, payload...)
}

// FuzzReplay feeds arbitrary bytes to the WAL replay path. Whatever the
// file holds — torn headers, corrupt CRCs, hostile length fields,
// records without the magic byte, pure junk — replay must never panic,
// and must stop-and-truncate at the first record it cannot vouch for:
// after a successful open, a reopen must reproduce exactly the same
// state, and the on-disk tail it truncated must stay truncated. And
// because replay and log shipping read the log through one reader, the
// chunks ReadLog ships from sequence 0, concatenated, must be exactly
// the file replay kept — and that file must be exactly what the log
// writer frames.
func FuzzReplay(f *testing.F) {
	store := fuzzStorePayload("emp", 3)
	insert := fuzzInsertPayload("emp", 2)
	drop := wire.AppendString(nil, "emp")

	valid := appendWALRecord(nil, opStore, store)
	valid = appendWALRecord(valid, opInsert, insert)

	// Clean logs.
	f.Add([]byte{})
	f.Add(valid)
	f.Add(append(appendWALRecord(nil, opStore, store), appendWALRecord(nil, opDrop, drop)...))

	// Records without the magic byte are rejected wherever they sit: the
	// whole log, its head, or behind a valid record.
	f.Add(v0Record(opStore, store))
	f.Add(append(v0Record(opStore, store), appendWALRecord(nil, opInsert, insert)...))
	f.Add(append(appendWALRecord(nil, opStore, store), v0Record(opInsert, insert)...))
	f.Add(v0Record(opStore, store)[:3])
	f.Add(v0Record(0x7F, []byte("junk")))

	// Torn tails: a prefix of a valid record at every interesting cut.
	f.Add(valid[:3])            // mid header
	f.Add(valid[:walV1HdrLen])  // header only, payload missing
	f.Add(valid[:len(valid)-1]) // last payload byte missing

	// Corrupt CRC: flip a payload byte under a valid header.
	corrupt := append([]byte(nil), valid...)
	corrupt[walV1HdrLen+4] ^= 0xFF
	f.Add(corrupt)

	// Hostile lengths: a header claiming an absurd size, with and
	// without the magic byte.
	huge := []byte{walMagic, opStore, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	f.Add(huge)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, opStore})
	// Length just past the cap (MaxFrameSize + 1).
	past := []byte{walMagic, opStore}
	past = binary.BigEndian.AppendUint32(past, uint32(wire.MaxFrameSize+1))
	past = binary.BigEndian.AppendUint32(past, 0)
	f.Add(past)

	// Valid record followed by garbage: replay must keep the record and
	// truncate the garbage.
	f.Add(append(append([]byte(nil), valid...), 0xDE, 0xAD, 0xBE, 0xEF))

	// Behind a valid CRC, a record that fails to apply is a hard error,
	// not corruption: an unknown op, and an insert whose declared tuple
	// count (4 billion) exceeds what its payload could hold.
	f.Add(appendWALRecord(nil, 0x7F, []byte("junk")))
	hostile := wire.AppendU32(wire.AppendString(nil, "emp"), 0xFFFFFFFF)
	f.Add(append(appendWALRecord(nil, opStore, store), appendWALRecord(nil, opInsert, hostile)...))

	// A stored checksum flipped on a record whose bytes would otherwise
	// apply cleanly: only the CRC check keeps it out of the store.
	badCRC := append([]byte(nil), valid...)
	badCRC[len(appendWALRecord(nil, opStore, store))+7] ^= 0x01
	f.Add(badCRC)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, err := OpenOptions(path, Options{Sync: SyncNever})
		if err != nil {
			return // refused loudly: acceptable, as long as nothing panicked
		}
		list1 := s.List()
		epoch, head1 := s.LogHead()
		// Replay truncated the file to exactly the records it kept, so
		// what ReadLog ships must be the file, byte for byte.
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reframed(t, kept), kept) {
			t.Fatal("replay kept record bytes the log writer would not have framed")
		}
		var shipped []byte
		var seq uint64
		for seq < head1 {
			log, _, start, _, err := s.ReadLog(epoch, seq, 1<<20)
			if err != nil {
				t.Fatalf("ReadLog at %d: %v", seq, err)
			}
			n := shippedRecords(t, log)
			if start != seq || n == 0 {
				t.Fatalf("ReadLog at %d of %d answered from %d with %d records", seq, head1, start, n)
			}
			shipped = append(shipped, log...)
			seq += uint64(n)
		}
		if seq != head1 || !bytes.Equal(shipped, kept) {
			t.Fatalf("replay kept %d records (%d bytes), shipping served %d (%d bytes): the two readers disagree", head1, len(kept), seq, len(shipped))
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
		// The truncated log must reopen to the identical state.
		s2, err := OpenOptions(path, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("reopen after truncating replay: %v", err)
		}
		defer s2.Close()
		list2 := s2.List()
		_, head2 := s2.LogHead()
		if !reflect.DeepEqual(list1, list2) {
			t.Fatalf("reopen changed state:\nfirst:  %v\nsecond: %v", list1, list2)
		}
		if head1 != head2 {
			t.Fatalf("reopen changed record head: %d -> %d", head1, head2)
		}
	})
}
