package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

// fuzzSnapshot encodes a valid snapshot of a small in-memory store.
func fuzzSnapshot(tables int) []byte {
	s := NewMemory()
	names := []string{"emp", "dept", "proj"}
	for i := 0; i < tables && i < len(names); i++ {
		if err := s.Put(names[i], fakeTable(i+1)); err != nil {
			panic(err)
		}
	}
	b, _, err := s.buildSnapshot()
	if err != nil {
		panic(err)
	}
	return b
}

// resealSnapshot recomputes the trailer CRC so that a hostile mutation
// is actually reached by the log reader instead of bouncing off the
// seal.
func resealSnapshot(b []byte) []byte {
	if len(b) < snapMinLen {
		return b
	}
	binary.BigEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
	return b
}

// sealSnapshot wraps body — log records, valid or not — in a zero
// cursor header and a valid trailer.
func sealSnapshot(body []byte) []byte {
	b := append(make([]byte, snapHdrLen), body...)
	copy(b, snapMagic)
	return resealSnapshot(append(b, 0, 0, 0, 0))
}

// reframed re-frames every record the log reader accepts from log
// through the log writer's framing. The reader must only accept bytes
// the writer would have produced, so the result must equal log.
func reframed(t *testing.T, log []byte) []byte {
	t.Helper()
	var out []byte
	if _, err := eachWALRecord(log, func(op byte, payload []byte) error {
		out = appendWALRecord(out, op, payload)
		return nil
	}); err != nil {
		t.Fatalf("re-reading accepted log: %v", err)
	}
	return out
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder and
// holds it to the install-soundness contract: it must never panic, and
// whenever it accepts an input, its body must be exactly what the log
// writer frames, installing that input into a fresh store must succeed,
// reproduce exactly the decoded tables, and adopt exactly the embedded
// cursor — while a rejected input must leave an existing store
// untouched.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := fuzzSnapshot(2)
	empty := fuzzSnapshot(0)
	body := valid[snapHdrLen : len(valid)-4]

	f.Add([]byte{})
	f.Add(valid)
	f.Add(empty)

	// Truncated chunks: every structural boundary a torn transfer or a
	// lying server could leave behind.
	f.Add(valid[:4])                                   // mid-magic
	f.Add(valid[:snapHdrLen-1])                        // torn cursor
	f.Add(valid[:snapHdrLen])                          // header only, trailer missing
	f.Add(valid[:snapMinLen])                          // header + trailer-sized stub
	f.Add(valid[:len(valid)-1])                        // last trailer byte missing
	f.Add(valid[:len(valid)-5])                        // trailer gone, record torn
	f.Add(valid[:snapHdrLen+2])                        // mid record header
	f.Add(append(append([]byte(nil), valid...), 0xEE)) // trailing junk

	// A byte flipped in each region: magic, epoch, seq, a record's op,
	// its length, its CRC and its payload, and the trailer.
	for _, i := range []int{0, 9, snapHdrLen - 2, snapHdrLen + 1, snapHdrLen + 3, snapHdrLen + 7, len(valid) / 2, len(valid) - 2} {
		bad := append([]byte(nil), valid...)
		bad[i] ^= 0x10
		f.Add(bad)
	}

	// The same record-region flips behind a resealed trailer: only the
	// log reader stands between them and an install.
	for _, i := range []int{snapHdrLen + 7, len(valid) - 6} {
		bad := append([]byte(nil), valid...)
		bad[i] ^= 0x10
		f.Add(resealSnapshot(bad))
	}

	// Length bombs behind a resealed trailer: a first record declaring
	// 60 MiB (under the frame cap, far past the bytes left) and one
	// declaring nearly 4 GiB. Both must fail before any allocation.
	for _, n := range []uint32{60 << 20, 0xFFFFFF00} {
		bomb := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(bomb[snapHdrLen+2:], n)
		f.Add(resealSnapshot(bomb))
	}

	// A cursor from the future: structurally valid, epoch/seq maxed.
	future := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(future[8:], ^uint64(0))
	binary.BigEndian.PutUint64(future[16:], ^uint64(0))
	f.Add(resealSnapshot(future))

	// Whole, CRC-valid records the snapshot format still refuses: a
	// table twice, a record that is not a table, a table with no name,
	// junk between the last record and the trailer, and a table of a
	// scheme the store does not serve.
	f.Add(sealSnapshot(append(append([]byte(nil), body...), body...)))
	f.Add(sealSnapshot(appendWALRecord(append([]byte(nil), body...), opDrop, wire.AppendString(nil, "zzz"))))
	f.Add(sealSnapshot(appendWALRecord(nil, opStore, fuzzStorePayload("", 1))))
	f.Add(sealSnapshot(append(append([]byte(nil), body...), walMagic)))
	f.Add(sealSnapshot(append(append([]byte(nil), body...), comparatorRecord()...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		tables, log, cur, err := decodeSnapshot(data)
		if err != nil {
			// Rejected input must leave a populated store untouched.
			s := NewMemory()
			if perr := s.Put("keep", fakeTable(2)); perr != nil {
				t.Fatal(perr)
			}
			if _, ierr := s.InstallSnapshot(data); ierr == nil {
				t.Fatal("decode rejected the input but install accepted it")
			}
			got, gerr := s.Get("keep")
			if gerr != nil || len(got.Tuples) != 2 {
				t.Fatalf("failed install disturbed the store: %v", gerr)
			}
			return
		}
		if !bytes.Equal(reframed(t, log), log) {
			t.Fatal("decode accepted record bytes the log writer would not have framed")
		}
		for _, rec := range tables {
			if rec.name == "" || rec.slab == nil {
				t.Fatalf("decode accepted a record that is not a named table: %q", rec.name)
			}
		}
		// Accepted input must install cleanly and reproduce itself.
		s := NewMemory()
		icur, ierr := s.InstallSnapshot(data)
		if ierr != nil {
			t.Fatalf("decode accepted but install failed: %v", ierr)
		}
		if icur != cur {
			t.Fatalf("install adopted cursor %+v, decode said %+v", icur, cur)
		}
		list := s.List()
		if len(list) != len(tables) {
			t.Fatalf("installed %d tables, decoded %d", len(list), len(tables))
		}
		for _, rec := range tables {
			got, gerr := s.Get(rec.name)
			if gerr != nil {
				t.Fatalf("decoded table %q missing after install: %v", rec.name, gerr)
			}
			if !reflect.DeepEqual(got, rec.slab.Table()) {
				t.Fatalf("table %q differs between decode and install", rec.name)
			}
		}
		if e, q, ok := s.ResumeCursor(); !ok || e != cur.Epoch || q != cur.Seq {
			t.Fatalf("ResumeCursor = (%d,%d,%v) after install of cursor %+v", e, q, ok, cur)
		}
	})
}

// TestDecodeSnapshotRefusals pins each hostile snapshot to the check
// meant to refuse it, so an input that bounces off an earlier check —
// a wrong header, a bad seal — cannot pass for coverage of a later one.
func TestDecodeSnapshotRefusals(t *testing.T) {
	valid := fuzzSnapshot(2)
	body := valid[snapHdrLen : len(valid)-4]
	flip := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x10
		return b
	}
	bomb := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(bomb[snapHdrLen+2:], 60<<20)
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"truncated", "truncated", valid[:snapMinLen-1]},
		{"magic", "bad snapshot magic", flip(0)},
		{"seal", "checksum mismatch", flip(len(valid) / 2)},
		{"record crc", "no whole record at byte 0", resealSnapshot(flip(snapHdrLen + 7))},
		{"length bomb", "no whole record at byte 0", resealSnapshot(bomb)},
		{"trailing junk", "no whole record at byte", sealSnapshot(append(append([]byte(nil), body...), walMagic))},
		{"repeated table", "repeated", sealSnapshot(append(append([]byte(nil), body...), body...))},
		{"not a table", "not a table", sealSnapshot(appendWALRecord(append([]byte(nil), body...), opDrop, wire.AppendString(nil, "zzz")))},
		{"empty name", "empty table name", sealSnapshot(appendWALRecord(nil, opStore, fuzzStorePayload("", 1)))},
		{"undecodable table", "record 0:", sealSnapshot(appendWALRecord(nil, opStore, wire.AppendString(nil, "emp")))},
	}
	for _, c := range cases {
		_, _, _, err := decodeSnapshot(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decodeSnapshot error = %v, want one containing %q", c.name, err, c.want)
		}
	}
	// The sealed well-formed body itself is accepted: sealSnapshot's
	// header is the real one, so the refusals above are the body's.
	if _, _, _, err := decodeSnapshot(sealSnapshot(append([]byte(nil), body...))); err != nil {
		t.Fatalf("sealed valid body refused: %v", err)
	}
}
