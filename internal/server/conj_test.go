package server

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

var conjRegisterOnce sync.Once

// conjStore registers a word-equality evaluator so conjunctive plans do
// real narrowing in these tests (the shared "server-test" evaluator
// ignores its token).
func conjScheme() {
	conjRegisterOnce.Do(func() {
		ph.RegisterEvaluator("server-conj", func(et *ph.EncryptedTable, q *ph.EncryptedQuery) (*ph.Result, error) {
			var pos []int
			for i, tp := range et.Tuples {
				for _, w := range tp.Words {
					if bytes.Equal(w, q.Token) {
						pos = append(pos, i)
						break
					}
				}
			}
			return ph.SelectPositions(et, pos), nil
		})
	})
}

// conjTable: tuple i carries words "even"/"odd" and a per-tuple id word.
func conjTable(n int) *ph.EncryptedTable {
	et := &ph.EncryptedTable{SchemeID: "server-conj"}
	for i := 0; i < n; i++ {
		parity := []byte("odd")
		if i%2 == 0 {
			parity = []byte("even")
		}
		et.Tuples = append(et.Tuples, ph.EncryptedTuple{
			ID:    []byte{byte(i)},
			Words: [][]byte{parity, {0xB0, byte(i)}},
		})
	}
	return et
}

func conjFrame(name string, flags byte, tokens ...string) wire.Frame {
	qs := make([]*ph.EncryptedQuery, len(tokens))
	for i, tok := range tokens {
		qs[i] = &ph.EncryptedQuery{SchemeID: "server-conj", Token: []byte(tok)}
	}
	return wire.Frame{Type: wire.CmdQueryConj, Payload: query.EncodeRequest(nil, name, flags, qs)}
}

func TestDispatchQueryConj(t *testing.T) {
	conjScheme()
	s := New(testStore(t), nil)
	if resp := s.dispatch(storeFrame("emp", conjTable(8)), nil); resp.Type != wire.RespOK {
		t.Fatalf("store failed: %s", resp.Payload)
	}
	resp := s.dispatch(conjFrame("emp", 0, "even", string([]byte{0xB0, 2})), nil)
	if resp.Type != wire.RespResultConj {
		t.Fatalf("response %#x: %s", resp.Type, resp.Payload)
	}
	dec, err := query.DecodeResponse(wire.NewBuffer(resp.Payload))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Result == nil || dec.Verified != nil {
		t.Fatal("plain execution must carry a plain result")
	}
	if want := []int{2}; !reflect.DeepEqual(dec.Result.Positions, want) {
		t.Fatalf("intersection %v, want %v", dec.Result.Positions, want)
	}
	if len(dec.Plan.Steps) != 2 || dec.Plan.Tuples != 8 {
		t.Fatalf("plan %+v", dec.Plan)
	}
}

func TestDispatchQueryConjExplain(t *testing.T) {
	conjScheme()
	s := New(testStore(t), nil)
	if resp := s.dispatch(storeFrame("emp", conjTable(8)), nil); resp.Type != wire.RespOK {
		t.Fatalf("store failed: %s", resp.Payload)
	}
	resp := s.dispatch(conjFrame("emp", wire.ConjFlagExplain, "even", "odd"), nil)
	if resp.Type != wire.RespResultConj {
		t.Fatalf("response %#x: %s", resp.Type, resp.Payload)
	}
	dec, err := query.DecodeResponse(wire.NewBuffer(resp.Payload))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Result != nil || dec.Verified != nil {
		t.Fatal("explain must not execute")
	}
	for _, st := range dec.Plan.Steps {
		if st.Tested != 0 || st.Hits != 0 {
			t.Fatalf("explain step reports work: %+v", st)
		}
	}
}

func TestDispatchQueryConjVerified(t *testing.T) {
	conjScheme()
	s := New(testStore(t), nil)
	et := conjTable(8)
	if resp := s.dispatch(storeFrame("emp", et), nil); resp.Type != wire.RespOK {
		t.Fatalf("store failed: %s", resp.Payload)
	}
	resp := s.dispatch(conjFrame("emp", wire.ConjFlagVerified, "even", string([]byte{0xB0, 4})), nil)
	if resp.Type != wire.RespResultConj {
		t.Fatalf("response %#x: %s", resp.Type, resp.Payload)
	}
	dec, err := query.DecodeResponse(wire.NewBuffer(resp.Payload))
	if err != nil {
		t.Fatal(err)
	}
	vr := dec.Verified
	if vr == nil {
		t.Fatal("verified execution must carry a verified result")
	}
	if want := []int{4}; !reflect.DeepEqual(vr.Result.Positions, want) {
		t.Fatalf("intersection %v, want %v", vr.Result.Positions, want)
	}
	if want := authindex.Build(et).Root(); !bytes.Equal(vr.Root, want) {
		t.Fatal("verified root differs from a rebuild")
	}
	for i, p := range vr.Proofs {
		if err := authindex.Verify(vr.Root, vr.Leaves, vr.Result.Tuples[i], p); err != nil {
			t.Fatalf("proof %d rejected: %v", i, err)
		}
	}
}

// TestHostileConjCountAllocation: a small frame declaring 2^32-1
// conjuncts must fail cleanly without a count-proportional allocation
// (same clamp discipline as CmdQueryBatch).
func TestHostileConjCountAllocation(t *testing.T) {
	conjScheme()
	s := New(testStore(t), nil)
	if resp := s.dispatch(storeFrame("emp", conjTable(2)), nil); resp.Type != wire.RespOK {
		t.Fatalf("store failed: %s", resp.Payload)
	}
	payload := wire.AppendString(nil, "emp")
	payload = wire.AppendU8(payload, 0)
	payload = wire.AppendU32(payload, 0xFFFFFFFF)
	allocs := testing.AllocsPerRun(5, func() {
		resp := s.dispatch(wire.Frame{Type: wire.CmdQueryConj, Payload: payload}, nil)
		if resp.Type != wire.RespError {
			t.Fatalf("hostile count answered %#x", resp.Type)
		}
	})
	if allocs > 100 {
		t.Fatalf("hostile conjunct count cost %.0f allocations", allocs)
	}
}

func TestDispatchQueryConjUnknownTable(t *testing.T) {
	conjScheme()
	s := New(testStore(t), nil)
	resp := s.dispatch(conjFrame("missing", 0, "even"), nil)
	if resp.Type != wire.RespError {
		t.Fatalf("unknown table answered %#x", resp.Type)
	}
}
