package wire

import (
	"bytes"
	"testing"
)

func TestReadFrameReuse(t *testing.T) {
	var net bytes.Buffer
	frames := []Frame{
		{Type: CmdQuery, Payload: []byte("first payload")},
		{Type: CmdList},
		{Type: CmdStore, Payload: bytes.Repeat([]byte("x"), 9000)}, // forces growth
		{Type: CmdDrop, Payload: []byte("tiny")},
	}
	for _, f := range frames {
		if err := WriteFrame(&net, f); err != nil {
			t.Fatal(err)
		}
	}
	// A buffer of its own: one from the pool may already have grown on
	// an earlier run, leaving the growth path untested.
	buf := make([]byte, 0, 64)
	var grew int
	for i, want := range frames {
		f, next, err := ReadFrameReuse(&net, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if cap(next) > cap(buf) {
			grew++
		}
		buf = next
		if f.Type != want.Type || !bytes.Equal(f.Payload, want.Payload) {
			t.Fatalf("frame %d: got type %#x payload %d bytes, want %#x %d bytes",
				i, f.Type, len(f.Payload), want.Type, len(want.Payload))
		}
	}
	if grew == 0 {
		t.Fatal("buffer never grew; the growth path went untested")
	}
	PutBuf(buf)
}

func TestReadFrameReuseSteadyStateZeroAlloc(t *testing.T) {
	var one bytes.Buffer
	if err := WriteFrame(&one, Frame{Type: CmdQuery, Payload: bytes.Repeat([]byte("p"), 512)}); err != nil {
		t.Fatal(err)
	}
	raw := one.Bytes()
	buf := make([]byte, 0, 1024)
	r := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		f, next, err := ReadFrameReuse(r, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = next
		if len(f.Payload) != 512 {
			t.Fatalf("payload %d bytes", len(f.Payload))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ReadFrameReuse allocates %.0f times per frame, want 0", allocs)
	}
}

func TestPutBufDropsOversized(t *testing.T) {
	PutBuf(make([]byte, 0, MaxPooledBuf*2)) // must not panic, silently dropped
	PutBuf(nil)                             // zero-cap: dropped
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("GetBuf returned non-empty buffer of len %d", len(b))
	}
}
