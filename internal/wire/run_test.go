package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ph"
)

// runTuples is k tuples of varied shape: IDs and blobs of several lengths
// (some empty), zero to three words each.
func runTuples(k int) []ph.EncryptedTuple {
	tuples := make([]ph.EncryptedTuple, k)
	for i := range tuples {
		tp := &tuples[i]
		tp.ID = bytes.Repeat([]byte{byte(i + 1)}, 1+i%17)
		tp.Blob = bytes.Repeat([]byte{byte(0x80 + i)}, i%3)
		for w := 0; w < i%4; w++ {
			tp.Words = append(tp.Words, bytes.Repeat([]byte{byte(16*w + i)}, 5+w))
		}
	}
	return tuples
}

// runMessage is one message kind that carries a run of tuples: its
// encoding of tuples, and its decoder returning the tuples it decoded.
type runMessage struct {
	name   string
	encode func(tuples []ph.EncryptedTuple) []byte
	decode func(payload []byte) ([]ph.EncryptedTuple, error)
}

var runMessages = []runMessage{
	{
		"result",
		func(tuples []ph.EncryptedTuple) []byte {
			res := &ph.Result{Tuples: tuples}
			for i := range tuples {
				res.Positions = append(res.Positions, 2*i)
			}
			return EncodeResult(nil, res)
		},
		func(payload []byte) ([]ph.EncryptedTuple, error) {
			r := NewBuffer(payload)
			res, err := DecodeResult(r)
			if err != nil {
				return nil, err
			}
			return res.Tuples, r.Err()
		},
	},
	{
		"table",
		func(tuples []ph.EncryptedTuple) []byte {
			return EncodeTable(AppendString(nil, "emp"), &ph.EncryptedTable{SchemeID: "swp-ph", Meta: []byte{4, 1}, Tuples: tuples})
		},
		func(payload []byte) ([]ph.EncryptedTuple, error) {
			_, t, err := DecodeStore(payload)
			if err != nil {
				return nil, err
			}
			return t.Tuples, nil
		},
	},
	{
		"insert",
		func(tuples []ph.EncryptedTuple) []byte { return EncodeInsert(nil, "emp", tuples) },
		func(payload []byte) ([]ph.EncryptedTuple, error) {
			_, tuples, err := DecodeInsert(payload)
			return tuples, err
		},
	},
}

// sameTuple reports whether two tuples hold the same bytes.
func sameTuple(a, b ph.EncryptedTuple) bool {
	if !bytes.Equal(a.ID, b.ID) || !bytes.Equal(a.Blob, b.Blob) || len(a.Words) != len(b.Words) {
		return false
	}
	for i := range a.Words {
		if !bytes.Equal(a.Words[i], b.Words[i]) {
			return false
		}
	}
	return true
}

// TestTupleRunOwnsItsBytes: what a decoder hands out is its own — the
// payload can be overwritten (a connection reusing its frame buffer)
// without changing a decoded byte, and an append to one tuple's ID or
// Words lands in fresh memory, never in its neighbour's.
func TestTupleRunOwnsItsBytes(t *testing.T) {
	want := runTuples(9)
	for _, m := range runMessages {
		t.Run(m.name, func(t *testing.T) {
			payload := m.encode(want)
			got, err := m.decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			for i := range payload {
				payload[i] = 0xEE
			}
			for i := range want {
				if !sameTuple(got[i], want[i]) {
					t.Fatalf("tuple %d changed with the payload: %x", i, got[i].ID)
				}
			}
			for i := 0; i+1 < len(got); i++ {
				got[i].ID = append(got[i].ID, 0xAA, 0xBB)
				got[i].Blob = append(got[i].Blob, 0xCC)
				got[i].Words = append(got[i].Words, []byte("appended"))
				for j := range got[i].Words[:len(want[i].Words)] {
					got[i].Words[j] = append(got[i].Words[j], 0xDD)
				}
				if !sameTuple(got[i+1], want[i+1]) {
					t.Fatalf("appending to tuple %d changed tuple %d", i, i+1)
				}
			}
		})
	}
}

// TestTupleRunTruncated: every proper prefix of a three-tuple result,
// table and insert is an error, never a panic or a shorter run.
func TestTupleRunTruncated(t *testing.T) {
	for _, m := range runMessages {
		full := m.encode(runTuples(3))
		for cut := 0; cut < len(full); cut++ {
			if _, err := m.decode(full[:cut]); err == nil {
				t.Fatalf("%s cut to %d of %d bytes accepted", m.name, cut, len(full))
			}
		}
		if _, err := m.decode(full); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
}

// bytesAllocated is the heap a call allocates, averaged over runs.
func bytesAllocated(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// runHeader is a run header: n tuples of the given ID, blob and word
// lengths.
func runHeader(n, id, blob uint64, words ...uint64) []byte {
	b := binary.AppendUvarint(nil, n)
	b = binary.AppendUvarint(b, id)
	b = binary.AppendUvarint(b, blob)
	b = binary.AppendUvarint(b, uint64(len(words)))
	for _, w := range words {
		b = binary.AppendUvarint(b, w)
	}
	return b
}

// hostileRuns are insert payloads whose counts or run headers the bytes
// cannot hold, by name.
func hostileRuns() map[string][]byte {
	good := appendTuples(nil, runTuples(2)[1:])[4:] // one run of one tuple
	insert := func(count uint32, runs ...[]byte) []byte {
		b := AppendU32(AppendString(nil, "emp"), count)
		for _, r := range runs {
			b = append(b, r...)
		}
		return b
	}
	body := bytes.Repeat([]byte{0x5A}, 49)
	return map[string][]byte{
		"result tuple count":     append(AppendU32(AppendU32(AppendU32(nil, 1), 0), 0xFFFFFFFF), good...),
		"table tuple count":      append(AppendU32(AppendBytes(AppendString(AppendString(nil, "emp"), "swp-ph"), nil), 0xFFFFFFFF), good...),
		"insert tuple count":     insert(0xFFFFFFFF, good),
		"word count":             insert(1, runHeader(1, 2, 0), binary.AppendUvarint(nil, 0xFFFFFFFF)),
		"run of 0":               insert(1, runHeader(0, 16, 0, 11, 11, 11), runHeader(1, 16, 0, 11, 11, 11), body),
		"run past the count":     insert(1, runHeader(2, 16, 0, 11, 11, 11), body, body),
		"zero-byte tuples":       insert(0xFFFFFFFF, runHeader(0xFFFFFFFF, 0, 0)),
		"zero-byte words":        insert(0xFFFFFFFF, runHeader(0xFFFFFFFF, 0, 0, 0, 0, 0, 0)),
		"word length":            insert(1, runHeader(1, 0, 0, 1<<40)),
		"id length":              insert(1, runHeader(1, 0xFFFFFFFF, 0)),
		"n × stride overflows":   insert(0xFFFFFFFF, runHeader(0xFFFFFFFF, 1<<62, 1<<62, 1<<62)),
		"shape with no body":     insert(3, runHeader(3, 16, 0, 11, 11, 11)),
		"body one tuple short":   insert(3, runHeader(3, 16, 0, 11, 11, 11), body, body),
		"truncated run header":   insert(1, runHeader(1, 16, 0, 11, 11, 11)[:4]),
		"overlong uvarint count": insert(1, bytes.Repeat([]byte{0xFF}, 11)),
	}
}

// TestTupleRunHostileCounts: a tuple count, run length, word count or
// length the payload cannot hold fails before anything that size is
// allocated.
func TestTupleRunHostileCounts(t *testing.T) {
	for name, payload := range hostileRuns() {
		var err error
		n := bytesAllocated(50, func() {
			for _, m := range runMessages {
				if _, e := m.decode(payload); e == nil {
					err = fmt.Errorf("%s accepted by the %s decoder", name, m.name)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n > 4096 {
			t.Fatalf("%s: decoding allocated %d bytes", name, n)
		}
	}
}

// TestResultCountsAgree: positions and tuples are aligned, so a result
// carrying three positions and two tuples is refused.
func TestResultCountsAgree(t *testing.T) {
	tuples := runTuples(2)
	payload := EncodeResult(nil, &ph.Result{Positions: []int{1, 4, 9}, Tuples: tuples})
	if _, err := DecodeResult(NewBuffer(payload)); err == nil {
		t.Fatal("3 positions with 2 tuples accepted")
	}
	payload = EncodeResult(nil, &ph.Result{Positions: []int{1}, Tuples: tuples})
	if _, err := DecodeResult(NewBuffer(payload)); err == nil {
		t.Fatal("1 position with 2 tuples accepted")
	}
}

// TestDecodeResultAllocs: a decoded result is five heap objects — the
// result, its positions, its tuples, one region for their bytes and one
// for their word headers — whatever its size.
func TestDecodeResultAllocs(t *testing.T) {
	for _, k := range []int{10, 400} {
		res := &ph.Result{Tuples: runTuples(k)}
		for i := 0; i < k; i++ {
			res.Positions = append(res.Positions, i)
		}
		payload := EncodeResult(nil, res)
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := DecodeResult(NewBuffer(payload)); err != nil {
				t.Fatal(err)
			}
		}); allocs > 6 {
			t.Fatalf("decoding a %d-tuple result allocates %v objects, want at most 6", k, allocs)
		}
	}
}
