package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/swp"
)

// fixtureChecksumLen is the SWP checksum width m of every fixture
// table: a per-slot false-positive rate of 2^-64 ≈ 5.4·10^-20. The
// package's tests evaluate fixture queries over far fewer than 10^10
// word slots, so a false positive anywhere in a run has probability
// below 10^-9, and assertions on exact positions cannot flake on one
// (the default m = 2 is 2^-16 a slot).
const fixtureChecksumLen = 8

// fixture is the one instance of the paper's construction every fixture
// table and query of the package's tests is encrypted under: three int
// columns n, g and tag of width 8, so every word is 10 bytes (9 of
// value and padding, one attribute identifier), room for m = 8. sw is
// the SWP instance core derives for that word length, and meta the
// table metadata core writes.
var fixture = sync.OnceValue(func() (f struct {
	p    *core.PH
	sw   *swp.Scheme
	meta []byte
}) {
	schema := relation.MustSchema("fix",
		relation.Column{Name: "n", Type: relation.TypeInt, Width: 8},
		relation.Column{Name: "g", Type: relation.TypeInt, Width: 8},
		relation.Column{Name: "tag", Type: relation.TypeInt, Width: 8},
	)
	key := crypto.KeyFromBytes([]byte("storage fixtures"))
	var err error
	if f.p, err = core.New(key, schema, core.Options{ChecksumLen: fixtureChecksumLen}); err != nil {
		panic(err)
	}
	params := f.p.Params()[0]
	if f.sw, err = swp.New(crypto.NewPRF(key).DeriveKey(fmt.Sprintf("core/len/%d", params.WordLen), nil), params); err != nil {
		panic(err)
	}
	empty, err := f.p.EncryptTable(relation.NewTable(schema))
	if err != nil {
		panic(err)
	}
	f.meta = empty.Meta
	return f
})

// fixtureTable encrypts n tuples (n = i, g = i % 3, tag) the way
// core.EncryptTable does, but deterministically: tuple i sits at
// position i, its document ID encodes (tag, i) and its words keep
// column order — one draw of the permutations EncryptTable picks at
// random. The same arguments always give the same bytes, which is what
// lets tests pin log bytes; TestFixtureIsCoreEncryption holds the
// tables to core's decryption.
func fixtureTable(n int, tag byte) *ph.EncryptedTable {
	f := fixture()
	et := &ph.EncryptedTable{SchemeID: core.SchemeID, Meta: append([]byte(nil), f.meta...), Tuples: make([]ph.EncryptedTuple, n)}
	for i := range n {
		id := make([]byte, swp.DocIDLen)
		id[0] = tag
		binary.BigEndian.PutUint64(id[swp.DocIDLen-8:], uint64(i))
		words := make([][]byte, 3)
		for col, v := range []int64{int64(i), int64(i % 3), int64(tag)} {
			w := strconv.AppendInt(nil, v, 10)
			for len(w) < 9 {
				w = append(w, core.PadByte)
			}
			words[col] = append(w, "NGT"[col])
		}
		cws, err := f.sw.EncryptDocument(id, words)
		if err != nil {
			panic(err)
		}
		et.Tuples[i] = ph.EncryptedTuple{ID: id, Words: cws}
	}
	return et
}

// TestFixtureIsCoreEncryption: a fixture table decrypts, under the
// fixture's core instance, to the plaintext it was built from.
func TestFixtureIsCoreEncryption(t *testing.T) {
	p := fixture().p
	got, err := p.DecryptTable(fixtureTable(5, 7))
	if err != nil {
		t.Fatal(err)
	}
	want := relation.NewTable(p.Schema())
	for i := range 5 {
		want.MustInsert(relation.Int(int64(i)), relation.Int(int64(i%3)), relation.Int(7))
	}
	if !got.Equal(want) {
		t.Fatalf("fixture decrypts to\n%v\nwant\n%v", got, want)
	}
}

// fixtureQuery encrypts the select col = v against fixture tables.
func fixtureQuery(col string, v int64) *ph.EncryptedQuery {
	q, err := fixture().p.EncryptQuery(relation.Eq{Column: col, Value: relation.Int(v)})
	if err != nil {
		panic(err)
	}
	return q
}

// fakeTable builds n fixture tuples; the query n = i matches tuple i.
func fakeTable(n int) *ph.EncryptedTable { return fixtureTable(n, 0) }

func TestMemoryPutGet(t *testing.T) {
	s := NewMemory()
	if err := s.Put("emp", fakeTable(3)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 3 {
		t.Fatalf("got %d tuples", len(got.Tuples))
	}
	// Get must return a copy.
	got.Tuples[0].ID[0] = 0xFF
	again, _ := s.Get("emp")
	if again.Tuples[0].ID[0] == 0xFF {
		t.Fatal("Get shares memory with the store")
	}
}

func TestPutEmptyNameRejected(t *testing.T) {
	s := NewMemory()
	if err := s.Put("", fakeTable(1)); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestGetUnknown(t *testing.T) {
	s := NewMemory()
	if _, err := s.Get("nope"); err == nil {
		t.Fatal("unknown table returned")
	}
}

func TestList(t *testing.T) {
	s := NewMemory()
	s.Put("zeta", fakeTable(1))
	s.Put("alpha", fakeTable(2))
	infos := s.List()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "zeta" {
		t.Fatalf("list: %+v", infos)
	}
	if infos[1].Tuples != 1 || infos[0].SchemeID != core.SchemeID {
		t.Fatalf("list detail: %+v", infos)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("emp", fakeTable(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: write garbage half-record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 50, opInsert, 1, 2, 3}) // declares 50 bytes, has 3
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("torn log not recovered: %v", err)
	}
	defer s2.Close()
	got, err := s2.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 2 {
		t.Fatalf("replayed table has %d tuples, want 2", len(got.Tuples))
	}
	// The torn tail must have been truncated so new appends work.
	if err := s2.Append("emp", fakeTable(1).Tuples); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	got, err = s3.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 3 {
		t.Fatalf("after recovery+append: %d tuples, want 3", len(got.Tuples))
	}
}

func TestCompactInMemoryNoop(t *testing.T) {
	s := NewMemory()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.LogSize(); err != nil || n != 0 {
		t.Fatalf("in-memory log size = %d, %v", n, err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMemory()
	if err := s.Put("emp", fakeTable(4)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				switch i % 3 {
				case 0:
					s.Get("emp")
				case 1:
					s.Append("emp", fakeTable(1).Tuples)
				default:
					s.List()
				}
			}
		}(i)
	}
	wg.Wait()
	got, err := s.Get("emp")
	if err != nil {
		t.Fatal(err)
	}
	// 4 initial + ~(8/3 rounded) goroutines * 50 appends each.
	if len(got.Tuples) < 104 {
		t.Fatalf("lost appends: %d tuples", len(got.Tuples))
	}
}
