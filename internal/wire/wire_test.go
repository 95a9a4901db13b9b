package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/ph"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: CmdQuery, Payload: []byte("payload")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: CmdList}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != CmdList || len(out.Payload) != 0 {
		t.Fatalf("empty frame round trip: %+v", out)
	}
}

func TestFrameStreamsMultiple(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, Frame{Type: byte(i + 1), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != byte(i+1) || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d: %+v", i, f)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	if err := WriteFrame(io.Discard, Frame{Payload: make([]byte, MaxFrameSize)}); err == nil {
		t.Fatal("oversized frame written")
	}
	// A forged header declaring a huge length must be rejected without
	// allocation.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame header accepted")
	}
}

func TestFrameRejectsZeroLength(t *testing.T) {
	hdr := []byte{0, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(hdr[:4])); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: 1, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestBufferPrimitives(t *testing.T) {
	var b []byte
	b = AppendU8(b, 7)
	b = AppendU16(b, 0xBEEF)
	b = AppendU32(b, 1<<20)
	b = AppendU64(b, 1<<40)
	b = AppendBytes(b, []byte("raw"))
	b = AppendString(b, "str")
	r := NewBuffer(b)
	if v, err := r.U8(); err != nil || v != 7 {
		t.Fatalf("U8: %v %v", v, err)
	}
	if v, err := r.U16(); err != nil || v != 0xBEEF {
		t.Fatalf("U16: %#x %v", v, err)
	}
	if v, err := r.U32(); err != nil || v != 1<<20 {
		t.Fatalf("U32: %v %v", v, err)
	}
	if v, err := r.U64(); err != nil || v != 1<<40 {
		t.Fatalf("U64: %v %v", v, err)
	}
	if v, err := r.Bytes(); err != nil || string(v) != "raw" {
		t.Fatalf("Bytes: %q %v", v, err)
	}
	if v, err := r.String(); err != nil || v != "str" {
		t.Fatalf("String: %q %v", v, err)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err on consumed buffer: %v", err)
	}
}

func TestBufferUnderflow(t *testing.T) {
	r := NewBuffer([]byte{1})
	if _, err := r.U32(); err == nil {
		t.Fatal("U32 underflow accepted")
	}
	if _, err := r.U16(); err == nil {
		t.Fatal("U16 underflow accepted")
	}
	r2 := NewBuffer(AppendU32(nil, 100))
	if _, err := r2.Bytes(); err == nil {
		t.Fatal("Bytes with oversized length accepted")
	}
	r3 := NewBuffer([]byte{1, 2})
	if _, err := r3.U8(); err != nil {
		t.Fatal(err)
	}
	if err := r3.Err(); err == nil {
		t.Fatal("trailing bytes not reported")
	}
}

func sampleTable() *ph.EncryptedTable {
	return &ph.EncryptedTable{
		SchemeID: "swp-ph",
		Meta:     []byte{0, 11, 0, 2},
		Tuples: []ph.EncryptedTuple{
			{ID: []byte("id-1"), Words: [][]byte{[]byte("w11"), []byte("w12")}},
			{ID: []byte("id-2"), Blob: []byte("blob"), Words: [][]byte{[]byte("w21")}},
			{ID: []byte{}, Words: nil},
		},
	}
}

func TestTableCodecRoundTrip(t *testing.T) {
	in := sampleTable()
	// One buffer, sized once (the race detector's instrumentation of the
	// grow adds one more); growing by appends takes five here.
	if allocs := testing.AllocsPerRun(10, func() { EncodeTable(nil, in) }); allocs > 2 {
		t.Fatalf("EncodeTable allocates %v buffers, want it to size one", allocs)
	}
	out, err := DecodeTable(NewBuffer(EncodeTable(nil, in)))
	if err != nil {
		t.Fatal(err)
	}
	if out.SchemeID != in.SchemeID || !bytes.Equal(out.Meta, in.Meta) || len(out.Tuples) != len(in.Tuples) {
		t.Fatalf("table header mismatch: %+v", out)
	}
	for i := range in.Tuples {
		if !bytes.Equal(out.Tuples[i].ID, in.Tuples[i].ID) ||
			!bytes.Equal(out.Tuples[i].Blob, in.Tuples[i].Blob) ||
			len(out.Tuples[i].Words) != len(in.Tuples[i].Words) {
			t.Fatalf("tuple %d mismatch", i)
		}
		for j := range in.Tuples[i].Words {
			if !bytes.Equal(out.Tuples[i].Words[j], in.Tuples[i].Words[j]) {
				t.Fatalf("tuple %d word %d mismatch", i, j)
			}
		}
	}
}

func TestQueryCodecRoundTrip(t *testing.T) {
	in := &ph.EncryptedQuery{SchemeID: "bucket", Token: []byte{0, 2, 9, 9}}
	out, err := DecodeQuery(NewBuffer(EncodeQuery(nil, in)))
	if err != nil {
		t.Fatal(err)
	}
	if out.SchemeID != in.SchemeID || !bytes.Equal(out.Token, in.Token) {
		t.Fatalf("query mismatch: %+v", out)
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	in := &ph.Result{
		Positions: []int{0, 2, 7},
		Tuples: []ph.EncryptedTuple{
			{ID: []byte("a"), Words: [][]byte{[]byte("w")}},
			{ID: []byte("b")},
			{ID: []byte("c"), Blob: []byte("x")},
		},
	}
	out, err := DecodeResult(NewBuffer(EncodeResult(nil, in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Positions) != 3 || out.Positions[1] != 2 || len(out.Tuples) != 3 {
		t.Fatalf("result mismatch: %+v", out)
	}
}

func TestListCodecRoundTrip(t *testing.T) {
	in := []TableInfo{
		{Name: "emp", SchemeID: "swp-ph", Tuples: 42},
		{Name: "patients", SchemeID: "bucket", Tuples: 0},
	}
	out, err := DecodeList(NewBuffer(EncodeList(nil, in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("list mismatch: %+v", out)
	}
}

// TestTupleCodecProperty: n tuples of one shape encode to the count, one
// run header and n × stride bytes, and lists of any shapes — zero-length
// IDs, blobs and words among them — round-trip.
func TestTupleCodecProperty(t *testing.T) {
	f := func(id, blob, w1, w2 []byte, n uint8) bool {
		in := ph.EncryptedTuple{ID: id, Blob: blob, Words: [][]byte{w1, w2}}
		one := make([]ph.EncryptedTuple, 1+3*int(n)) // past 127: a 2-byte run length
		for i := range one {
			one[i] = in
		}
		// A tuple shorter than its word count plus one runs alone.
		runs, stride := len(one), len(id)+len(blob)+len(w1)+len(w2)
		if stride > len(in.Words) {
			runs = 1
		}
		header := len(runHeader(uint64(len(one)/runs), uint64(len(id)), uint64(len(blob)), uint64(len(w1)), uint64(len(w2))))
		enc := appendTuples(nil, one)
		if len(enc) != 4+runs*header+len(one)*stride || len(enc) != tuplesLen(one) {
			return false
		}
		// Mixed shapes: the same bytes cut differently, and an empty tuple.
		mixed := append(one, ph.EncryptedTuple{ID: w1, Words: [][]byte{id}}, ph.EncryptedTuple{}, in, ph.EncryptedTuple{Blob: w2})
		for _, list := range [][]ph.EncryptedTuple{one, mixed} {
			enc := appendTuples(nil, list)
			r := NewBuffer(enc[4:])
			out, err := decodeTuples(r, uint32(len(list)))
			if err != nil || r.Err() != nil || len(enc) != tuplesLen(list) {
				return false
			}
			for i := range list {
				if !sameTuple(out[i], list[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMutationPayloadsRoundTrip: the store, insert and name payloads
// decode to what was encoded, and to nothing when a byte trails.
func TestMutationPayloadsRoundTrip(t *testing.T) {
	et := sampleTable()
	insert := EncodeInsert(nil, "emp", et.Tuples)
	name, tuples, err := DecodeInsert(insert)
	if err != nil || !bytes.Equal(EncodeInsert(nil, name, tuples), insert) {
		t.Fatalf("insert round trip: %q, %d tuples, %v", name, len(tuples), err)
	}
	store := EncodeTable(AppendString(nil, "emp"), et)
	name, got, err := DecodeStore(store)
	if err != nil || !bytes.Equal(EncodeTable(AppendString(nil, name), got), store) {
		t.Fatalf("store round trip: %q, %v", name, err)
	}
	if name, err := DecodeName(AppendString(nil, "emp")); err != nil || name != "emp" {
		t.Fatalf("name round trip: %q, %v", name, err)
	}
	if _, _, err := DecodeInsert(append(insert, 0)); err == nil {
		t.Fatal("insert payload with a trailing byte accepted")
	}
	if _, _, err := DecodeStore(append(store, 0)); err == nil {
		t.Fatal("store payload with a trailing byte accepted")
	}
	if _, err := DecodeName(append(AppendString(nil, "emp"), 0)); err == nil {
		t.Fatal("name payload with a trailing byte accepted")
	}
	if _, _, err := DecodeInsert(AppendU32(AppendString(nil, "emp"), 0xFFFFFFFF)); err == nil {
		t.Fatal("absurd tuple count accepted")
	}
}

func TestDecodeRejectsCorruptCounts(t *testing.T) {
	// A run declaring 2^32-1 words a tuple must fail fast.
	b := append(runHeader(1, 2, 0)[:3], binary.AppendUvarint(nil, 0xFFFFFFFF)...)
	if _, err := decodeTuples(NewBuffer(append(b, "id"...)), 1); err == nil {
		t.Fatal("absurd word count accepted")
	}
}
