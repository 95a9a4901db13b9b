package wire

import (
	"bytes"
	"testing"

	"repro/internal/ph"
)

// FuzzDecodeTable checks the wire decoder never panics or over-allocates on
// arbitrary bytes, and that re-encoding anything it accepts is stable. Its
// tuple runs go through the one decoder every tuple list on the wire, in
// the log, in a snapshot and in a shipped chunk goes through.
func FuzzDecodeTable(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeTable(nil, sampleTable()))
	f.Add(AppendU32(AppendBytes(AppendString(nil, "swp-ph"), []byte{1}), 0xFFFFFFFF))
	// Runs of several shapes, and the hostile run headers, behind a
	// table's scheme and meta instead of an insert's name.
	f.Add(EncodeTable(nil, &ph.EncryptedTable{SchemeID: "swp-ph", Tuples: runTuples(12)}))
	for _, insert := range hostileRuns() {
		f.Add(append(AppendString(nil, "swp-ph"), insert...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		et, err := DecodeTable(NewBuffer(data))
		if err != nil {
			return
		}
		re := EncodeTable(nil, et)
		et2, err := DecodeTable(NewBuffer(re))
		if err != nil {
			t.Fatalf("re-decode of re-encoded table failed: %v", err)
		}
		if !bytes.Equal(EncodeTable(nil, et2), re) {
			t.Fatal("encoding not stable")
		}
	})
}

// FuzzReadFrame checks framing against arbitrary streams.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{Type: CmdQuery, Payload: []byte("x")})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, fr); err != nil {
			t.Fatalf("re-writing accepted frame failed: %v", err)
		}
	})
}
