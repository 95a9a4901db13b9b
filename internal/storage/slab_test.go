package storage

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ph"
	"repro/internal/query"
	"repro/internal/wire"
)

// The digests of what slabStore leaves behind, recorded from the build
// that kept every stored tuple as a ph.EncryptedTuple: the run slab
// changed how tuples are held, not one byte of the log, a snapshot, a
// FetchAll answer or the Merkle tree.
const (
	slabLogSHA256   = "3764ee00b16e779a9a2683c4f574e9cb29e790f7736af23921115653b2e7385d"
	slabSnapSHA256  = "15b0b25290bd8b90d5b59d5e3c0a2a29af9b9165554e5ae58e2b3e9e389e2a12"
	slabTableSHA256 = "bb6a5697fc0f7e0a24389cd8a6ebe92162bfb6f1475863c09a6c6ac520ad2d0e"
	slabRoot        = "90b252d86b2ed17cc1709473d5e71afbe8c07108279d61c17e610452d9a791ba"
	slabCapSHA256   = "ab7a472e6c4f127a5446b86722c8b45d49a1b8cc4a9bfa550bd1a8e96b0b20d9"
)

// mixedBatch is a batch of n tuples of TestReadViewDuringAppends' other
// shape: a 3-byte ID and words of 2 and 1 bytes.
func mixedBatch(i, n int) []ph.EncryptedTuple {
	batch := make([]ph.EncryptedTuple, n)
	for j := range batch {
		batch[j] = ph.EncryptedTuple{ID: []byte{byte(i), byte(j), 0xF0}, Words: [][]byte{{0xAA, byte(i)}, {byte(j)}}}
	}
	return batch
}

// slabStore builds a durable store at path the same way every time: a
// fixture table, then appends whose shapes alternate — uniform fixture
// batches, mixed-shape batches, some of them in a row, and tuples short
// enough to be a wire run each — and a second table beside it.
func slabStore(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("emp", fixtureTable(40, 0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("other", fixtureTable(3, 0xCC)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		var batch []ph.EncryptedTuple
		switch i % 4 {
		case 0, 3:
			batch = fixtureTable(1+i%5, byte(0xB0+i)).Tuples
		default:
			batch = mixedBatch(i, 1+i%3)
		}
		if err := s.Append("emp", batch); err != nil {
			t.Fatal(err)
		}
	}
	// Tuples no longer than their word count are a run each on the wire.
	tiny := []ph.EncryptedTuple{{ID: []byte{1}, Words: [][]byte{{}, {2}}}, {ID: []byte{3}, Words: [][]byte{{}, {4}}}}
	if err := s.Append("emp", tiny); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("emp", fixtureTable(2, 0xBF).Tuples); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("other", fixtureTable(2, 0xCD).Tuples); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSlabBytesArePinned: the log's records, a snapshot's body, the FetchAll
// encoding and the Merkle root and cap row of slabStore's tables are the
// bytes the tuple-struct store wrote.
func TestSlabBytesArePinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s := slabStore(t, path)
	defer s.Close()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := s.buildSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	root, _, _, err := s.Root("emp")
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.entry("emp")
	if err != nil {
		t.Fatal(err)
	}
	e.mu.RLock()
	capRow := e.authTree().CapRow()
	e.mu.RUnlock()
	for _, c := range []struct{ what, got, want string }{
		{"log records", fmt.Sprintf("%x", sha256.Sum256(log[logHdrLen:])), slabLogSHA256},
		{"snapshot body", fmt.Sprintf("%x", sha256.Sum256(snap[snapHdrLen:len(snap)-4])), slabSnapSHA256},
		{"FetchAll encoding", fmt.Sprintf("%x", sha256.Sum256(wire.EncodeTable(nil, got))), slabTableSHA256},
		{"Merkle root", fmt.Sprintf("%x", root), slabRoot},
		{"cap row", fmt.Sprintf("%x", sha256.Sum256(capRow)), slabCapSHA256},
	} {
		if c.got != c.want {
			t.Errorf("%s: %s, want %s", c.what, c.got, c.want)
		}
	}
}

// slabRead reads qs from s's table name and checks that the last
// conjunct was served from want and that the answer is
// ph.SelectPositions over a Get snapshot, and not empty.
func slabRead(t *testing.T, s *Store, name, what string, flags byte, want query.Source, qs ...*ph.EncryptedQuery) query.Response {
	t.Helper()
	resps, rds, err := s.readPlans(name, flags, [][]*ph.EncryptedQuery{qs})
	if err != nil {
		t.Fatal(err)
	}
	resp := resps[0]
	if src := rds[0].plan.Conjuncts[len(qs)-1].Source; src != want {
		t.Fatalf("%s: served %v, want %v", what, src, want)
	}
	res := resp.Matches()
	snap, err := s.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) == 0 || !reflect.DeepEqual(res, ph.SelectPositions(snap, res.Positions)) {
		t.Fatalf("%s: answer at %v differs from the snapshot's tuples", what, res.Positions)
	}
	return resp
}

// TestSlabAnswersMatchSnapshot: on a table whose runs alternate shapes,
// every answer — plain, verified, a cached prefix's delta over the
// appended tail and a narrowed conjunction — is ph.SelectPositions over
// a Get snapshot, and every verified answer verifies.
func TestSlabAnswersMatchSnapshot(t *testing.T) {
	s := slabStore(t, filepath.Join(t.TempDir(), "store.log"))
	defer s.Close()
	tag, g1, g2 := fixtureQuery("tag", 0xAA), fixtureQuery("g", 1), fixtureQuery("g", 2)
	for round := 0; round < 3; round++ {
		cold := query.SourceScan
		if round > 0 {
			cold = query.SourceDelta
		}
		slabRead(t, s, "emp", fmt.Sprintf("round %d plain", round), 0, cold, tag)
		vr := slabRead(t, s, "emp", fmt.Sprintf("round %d verified", round), wire.ReadFlagVerified, cold, g1).Verified
		if err := verifyAt(s, "emp", vr); err != nil {
			t.Fatalf("round %d verified answer: %v", round, err)
		}
		slabRead(t, s, "emp", fmt.Sprintf("round %d narrowed", round), 0, query.SourceNarrow, tag, g2)
		// Grow the table in both shapes, so the next round's cached
		// prefixes end inside a run and its tail crosses into others.
		if err := s.Append("emp", mixedBatch(round, 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append("emp", fixtureTable(3+round, 0xAA).Tuples); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSlabScansRunsOfAnyWidth: a scan's word scratch fits the table's
// widest run, wherever it lies: a table of 12-word tuples grown by
// 9-word ones answers plain, delta and narrowed reads as its Get
// snapshot does.
func TestSlabScansRunsOfAnyWidth(t *testing.T) {
	// wide is n fixture tuples, each with its three cipherwords repeated
	// to k words: a copied cipherword still matches its trapdoor.
	wide := func(n, k int, tag byte) *ph.EncryptedTable {
		et := fixtureTable(n, tag)
		for i, tp := range et.Tuples {
			words := make([][]byte, k)
			for w := range words {
				words[w] = tp.Words[w%len(tp.Words)]
			}
			et.Tuples[i].Words = words
		}
		return et
	}
	s := NewMemory()
	if err := s.Put("wide", wide(6, 12, 0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("wide", wide(2, 9, 0xAA).Tuples); err != nil {
		t.Fatal(err)
	}
	tag, g1 := fixtureQuery("tag", 0xAA), fixtureQuery("g", 1)
	slabRead(t, s, "wide", "plain", 0, query.SourceScan, tag)
	if err := s.Append("wide", wide(2, 10, 0xAA).Tuples); err != nil {
		t.Fatal(err)
	}
	slabRead(t, s, "wide", "delta", 0, query.SourceDelta, tag)
	slabRead(t, s, "wide", "narrowed", 0, query.SourceNarrow, tag, g1)
	slabRead(t, s, "wide", "verified", wire.ReadFlagVerified, query.SourceScan, g1)
}

// TestSlabRefusesHostileFrames: an insert or store record whose runs do
// not hold what it says — a run past its payload, a count above its
// runs, a run of 0 tuples, each after a valid run — is refused before
// any byte reaches the slab or the log: the table, its tuple count and
// the log file stay byte for byte what they were.
func TestSlabRefusesHostileFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s := slabStore(t, path)
	defer s.Close()
	state := func() string {
		t.Helper()
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		table, err := s.AppendTable(nil, "emp")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v, table %x, log %x", s.List(), sha256.Sum256(table), sha256.Sum256(log))
	}
	before := state()

	// Both payloads carry a run of three fixture tuples, then a run of
	// two mixed-shape ones.
	first := fixtureTable(3, 0xBB)
	both := &ph.EncryptedTable{SchemeID: first.SchemeID, Meta: first.Meta, Tuples: append(first.Tuples, mixedBatch(9, 2)...)}
	name := wire.AppendString(nil, "emp")
	empty := &ph.EncryptedTable{SchemeID: first.SchemeID, Meta: first.Meta}
	type frame struct {
		op      byte
		payload []byte
	}
	cases := map[string]frame{}
	for _, c := range []struct {
		kind        string
		op          byte
		payload     []byte
		count, run2 int // offsets of the tuple count and of the second run
	}{
		{"insert", opInsert, wire.EncodeInsert(nil, "emp", both.Tuples), len(name), len(wire.EncodeInsert(nil, "emp", first.Tuples))},
		{"store", opStore, wire.EncodeTable(name, both), len(wire.EncodeTable(name, empty)) - 4, len(wire.EncodeTable(name, first))},
	} {
		above := slices.Clone(c.payload)
		above[c.count+3]++
		zero := slices.Clone(c.payload)
		zero[c.run2] = 0
		cases[c.kind+": a run past its payload"] = frame{c.op, c.payload[:len(c.payload)-1]}
		cases[c.kind+": a count above its runs"] = frame{c.op, above}
		cases[c.kind+": a run of 0 tuples"] = frame{c.op, zero}
	}
	for what, c := range cases {
		var err error
		if c.op == opInsert {
			_, _, err = wire.DecodeInsertRuns(c.payload)
		} else {
			_, _, err = wire.DecodeStoreSlab(c.payload)
		}
		if err == nil {
			t.Fatalf("%s: decoded", what)
		}
		if _, err := s.ApplyShipped(appendWALRecord(nil, c.op, c.payload)); err == nil {
			t.Fatalf("%s: applied", what)
		}
		if after := state(); after != before {
			t.Fatalf("%s: the store went from %s to %s", what, before, after)
		}
	}
}
