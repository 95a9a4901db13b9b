package server

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
)

// conjTable: tuple i carries parity "even" or "odd" and id i.
func conjTable(n int) *ph.EncryptedTable { return fixtureTable(n) }

// fixtureQuery encrypts one token of a read test: an id written by id,
// or a parity.
func fixtureQuery(t *testing.T, tok string) *ph.EncryptedQuery {
	t.Helper()
	eq := relation.Eq{Column: "parity", Value: relation.String(tok)}
	if i, err := strconv.Atoi(tok); err == nil {
		eq = relation.Eq{Column: "id", Value: relation.Int(int64(i))}
	}
	q, err := fixturePH().EncryptQuery(eq)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// readFrame builds the one read request: each plan is a list of tokens.
func readFrame(t *testing.T, name string, flags byte, plans ...[]string) wire.Frame {
	t.Helper()
	qs := make([][]*ph.EncryptedQuery, len(plans))
	for i, tokens := range plans {
		for _, tok := range tokens {
			qs[i] = append(qs[i], fixtureQuery(t, tok))
		}
	}
	payload, err := query.EncodeRequest(nil, name, flags, qs)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Frame{Type: wire.CmdQuery, Payload: payload}
}

// id is the token matching only tuple i of conjTable.
func id(i int) string { return strconv.Itoa(i) }

// TestDispatchRead drives the one read command through every request
// shape and answer mode: plan order is kept, a conjunction answers its
// intersection, verified answers are internally consistent — the
// returned root is a rebuild's, and proofs fold the returned tuples into
// the rebuild's cap row — and explain reports a plan without executing
// it.
func TestDispatchRead(t *testing.T) {
	et := conjTable(8)
	tree := authindex.Build(et)
	wantRoot := tree.Root()
	many := make([][]string, 9) // more plans than the scheduler budget's capacity
	for i := range many {
		many[i] = []string{id(i % 8)}
	}
	for _, tc := range []struct {
		name  string
		table string
		flags byte
		plans [][]string
		want  [][]int // positions per plan; nil for an error answer
	}{
		{"single", "emp", 0, [][]string{{"even"}}, [][]int{{0, 2, 4, 6}}},
		{"batch keeps order", "emp", 0, many, [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {0}}},
		{"conjunction", "emp", 0, [][]string{{"even", id(2)}}, [][]int{{2}}},
		{"empty intersection", "emp", 0, [][]string{{"even", "odd"}}, [][]int{{}}},
		{"verified single", "emp", wire.ReadFlagVerified, [][]string{{"odd"}}, [][]int{{1, 3, 5, 7}}},
		{"verified batch of conjunctions", "emp", wire.ReadFlagVerified, [][]string{{"even", id(4)}, {id(7)}}, [][]int{{4}, {7}}},
		{"explain", "emp", wire.ReadFlagExplain, [][]string{{"even", "odd"}, {"even"}}, [][]int{nil, nil}},
		{"unknown table", "missing", 0, [][]string{{"even"}}, nil},
		{"unknown table fails a batch as a unit", "missing", 0, [][]string{{"even"}, {"odd"}}, nil},
		{"partition fetch is not a store's", "emp", 1 << 2, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(testStore(t), nil)
			if resp := s.dispatch(storeFrame("emp", et), nil); resp.Type != wire.RespOK {
				t.Fatalf("store failed: %s", resp.Payload)
			}
			resp := s.dispatch(readFrame(t, tc.table, tc.flags, tc.plans...), nil)
			if tc.want == nil {
				if resp.Type != wire.RespError {
					t.Fatalf("answered %#x, want an error", resp.Type)
				}
				return
			}
			if resp.Type != wire.RespResult {
				t.Fatalf("response %#x: %s", resp.Type, resp.Payload)
			}
			flags, answers, err := query.DecodeResponses(resp.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if flags != tc.flags || len(answers) != len(tc.want) {
				t.Fatalf("flags %#x, %d answers; want %#x, %d", flags, len(answers), tc.flags, len(tc.want))
			}
			for i, a := range answers {
				if tc.flags == wire.ReadFlagExplain {
					if a.Result != nil || a.Verified != nil || a.Plan.Tuples != 8 || len(a.Plan.Steps) != len(tc.plans[i]) {
						t.Fatalf("explain answer %d: %+v", i, a)
					}
					for _, st := range a.Plan.Steps {
						if st.Tested != 0 || st.Hits != 0 {
							t.Fatalf("explain step reports work: %+v", st)
						}
					}
					continue
				}
				if a.Plan != nil || (a.Verified != nil) != (tc.flags == wire.ReadFlagVerified) {
					t.Fatalf("answer %d has the wrong shape: %+v", i, a)
				}
				if got := a.Matches().Positions; !reflect.DeepEqual(got, tc.want[i]) {
					t.Fatalf("plan %d positions %v, want %v", i, got, tc.want[i])
				}
				if vr := a.Verified; vr != nil {
					if vr.Leaves != 8 || vr.Version == 0 || !bytes.Equal(vr.Root, wantRoot) || vr.Proofs != nil {
						t.Fatalf("snapshot metadata: %d leaves, version %d, %d per-leaf proofs", vr.Leaves, vr.Version, len(vr.Proofs))
					}
					if err := authindex.VerifyAnswer(tree.CapRow(), vr.Leaves, vr.Result.Positions, vr.Result.Tuples, vr.Multiproof); err != nil {
						t.Fatalf("answer of %d tuples rejected: %v", len(vr.Result.Tuples), err)
					}
				}
			}
		})
	}
}

// TestHostileCountsDoNotAllocate: a frame may declare a huge element
// count with a tiny payload; the decode loop must fail on the short
// buffer instead of preallocating count-proportional memory (a remote
// OOM otherwise).
func TestHostileCountsDoNotAllocate(t *testing.T) {
	s := New(testStore(t), nil)
	if resp := s.dispatch(storeFrame("emp", encTable(1)), nil); resp.Type != wire.RespOK {
		t.Fatalf("store: %#x", resp.Type)
	}
	name := wire.AppendString(nil, "emp")
	for what, f := range map[string]wire.Frame{
		"tuples": {Type: wire.CmdInsert, Payload: wire.AppendU32(name, 0xFFFFFFFF)},
		// One run of 2^32-1 tuples of no bytes: ID, blob and word count
		// all 0.
		"zero-byte run": {Type: wire.CmdInsert, Payload: append(wire.AppendU32(name, 0xFFFFFFFF), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0)},
		"plans":         {Type: wire.CmdQuery, Payload: wire.AppendU16(wire.AppendU8(name, 0), 0xFFFF)},
		"conjuncts":     {Type: wire.CmdQuery, Payload: wire.AppendU16(wire.AppendU16(wire.AppendU8(name, 0), 1), 0xFFFF)},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if resp := s.dispatch(f, nil); resp.Type != wire.RespError {
				t.Fatalf("hostile %s count answered %#x, want error", what, resp.Type)
			}
		})
		if allocs > 100 {
			t.Fatalf("hostile %s count cost %.0f allocations", what, allocs)
		}
	}
}

// TestTrailingBytesRejected: every command's payload must be consumed
// exactly — one stray byte after a well-formed request is a protocol
// error, answered as such with nothing applied.
func TestTrailingBytesRejected(t *testing.T) {
	store, err := storage.Open(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := New(store, nil)
	if resp := s.dispatch(storeFrame("emp", conjTable(4)), nil); resp.Type != wire.RespOK {
		t.Fatalf("store failed: %s", resp.Payload)
	}
	ship := wire.AppendU32(wire.AppendU64(wire.AppendU64(nil, 0), 0), 1<<20)
	frames := []wire.Frame{
		storeFrame("other", conjTable(2)),
		insertFrame("emp", conjTable(1).Tuples),
		readFrame(t, "emp", 0, []string{"even"}),
		readFrame(t, "emp", wire.ReadFlagVerified, []string{"even"}, []string{"odd", id(1)}),
		{Type: wire.CmdFetchAll, Payload: wire.AppendString(nil, "emp")},
		{Type: wire.CmdList},
		{Type: wire.CmdShipLog, Payload: ship},
		{Type: wire.CmdShipSnapshot, Payload: wire.AppendU32(wire.AppendU64(ship[:16:16], 0), 1<<20)},
		{Type: wire.CmdDrop, Payload: wire.AppendString(nil, "emp")},
	}
	for _, f := range frames {
		f.Payload = append(append([]byte(nil), f.Payload...), 0)
		if resp := s.dispatch(f, nil); resp.Type != wire.RespError {
			t.Fatalf("command %#x with a trailing byte answered %#x", f.Type, resp.Type)
		}
	}
	if infos := store.List(); len(infos) != 1 || infos[0].Name != "emp" || infos[0].Tuples != 4 {
		t.Fatalf("a refused frame changed the store: %+v", infos)
	}
	// The same frames without the stray byte are all served.
	for _, f := range frames {
		if resp := s.dispatch(f, nil); resp.Type == wire.RespError {
			t.Fatalf("well-formed command %#x refused: %s", f.Type, resp.Payload)
		}
	}
}
