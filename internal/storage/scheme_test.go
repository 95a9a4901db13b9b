package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ph"
	"repro/internal/wire"
)

// comparatorTable is a table as the bucket comparator would upload it:
// a strong ciphertext and a bucket label per tuple.
func comparatorTable() *ph.EncryptedTable {
	return &ph.EncryptedTable{SchemeID: "bucket", Meta: []byte{1}, Tuples: []ph.EncryptedTuple{
		{ID: []byte{0}, Blob: []byte{0xB0, 0}, Words: [][]byte{{0xA0, 0}}},
		{ID: []byte{1}, Blob: []byte{0xB0, 1}, Words: [][]byte{{0xA0, 1}}},
	}}
}

// comparatorRecord is a CRC-valid opStore record of comparatorTable under
// the name "pat".
func comparatorRecord() []byte {
	return appendWALRecord(nil, opStore, wire.EncodeTable(wire.AppendString(nil, "pat"), comparatorTable()))
}

// refusesComparator fails unless err is the refusal of comparatorTable:
// the table, its scheme and the reason named.
func refusesComparator(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("a bucket table was accepted")
	}
	for _, want := range []string{`table "pat"`, `scheme "bucket"`, "stores only swp-ph", "Definition 2.1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not say %s", err, want)
		}
	}
}

// TestPutRefusesComparatorTable: Put stores only the paper's
// construction, so a comparator table reaches neither memory nor the
// log.
func TestPutRefusesComparatorTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	refusesComparator(t, s.Put("pat", comparatorTable()))
	if infos := s.List(); len(infos) != 0 {
		t.Fatalf("the store holds %+v after refusing", infos)
	}
	if size, err := s.LogSize(); err != nil || size != 0 {
		t.Fatalf("log is %d bytes (%v) after a refused Put, want 0", size, err)
	}
}

// TestReadRefusesSchemeMismatch: a conjunct of another scheme is refused
// before anything is planned — core.EvaluateSlab would read its token as
// an SWP trapdoor — whether it drives the plan or narrows it.
func TestReadRefusesSchemeMismatch(t *testing.T) {
	s := NewMemory()
	if err := s.Put("emp", fakeTable(4)); err != nil {
		t.Fatal(err)
	}
	foreign := &ph.EncryptedQuery{SchemeID: "bucket", Token: fixtureQuery("n", 1).Token}
	for _, qs := range [][]*ph.EncryptedQuery{
		{foreign},
		{fixtureQuery("n", 1), foreign},
	} {
		for _, flags := range []byte{0, wire.ReadFlagVerified, wire.ReadFlagExplain} {
			if _, _, err := s.Read("emp", qs, flags); err == nil || !strings.Contains(err.Error(), `scheme "bucket"`) {
				t.Fatalf("%d conjuncts, flags %#x: Read error %v, want the foreign scheme refused", len(qs), flags, err)
			}
		}
	}
	if st := s.ShareStats(); st.Passes != 0 {
		t.Fatalf("a refused read scanned: %+v", st)
	}
	if cs := s.CacheStats(); cs.Hits+cs.Misses+cs.Deltas != 0 {
		t.Fatalf("a refused read consulted the cache: %+v", cs)
	}
}

// TestReplayRefusesComparatorTable: a log holding a comparator table does
// not replay. Open fails with the refusal and the record's offset, and
// the file keeps every byte, as after any record this build does not
// serve.
func TestReplayRefusesComparatorTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	log := appendWALRecord(nil, opStore, fuzzStorePayload("emp", 2))
	offset := len(log)
	log = append(log, comparatorRecord()...)
	if err := os.WriteFile(path, log, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("a log with a bucket table opened")
	}
	refusesComparator(t, err)
	if !strings.Contains(err.Error(), fmt.Sprintf("at offset %d", offset)) {
		t.Fatalf("error %q does not name offset %d", err, offset)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, log) {
		t.Fatalf("log changed by a refused replay (%d bytes, want the %d written; %v)", len(got), len(log), err)
	}
}

// TestApplyShippedRefusesComparatorTable: a follower refuses a shipped
// chunk's comparator table and never holds it.
func TestApplyShippedRefusesComparatorTable(t *testing.T) {
	f := NewMemory()
	chunk := appendWALRecord(nil, opStore, fuzzStorePayload("emp", 2))
	chunk = append(chunk, comparatorRecord()...)
	applied, err := f.ApplyShipped(chunk)
	refusesComparator(t, err)
	if applied != 1 {
		t.Fatalf("applied %d records before the refusal, want 1", applied)
	}
	if infos := f.List(); len(infos) != 1 || infos[0].Name != "emp" {
		t.Fatalf("follower holds %+v, want emp alone", infos)
	}
}

// TestInstallSnapshotRefusesComparatorTable: a snapshot holding a
// comparator table is refused whole, and the store keeps its previous
// tables and log.
func TestInstallSnapshotRefusesComparatorTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "follower.log")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Put("keep", fakeTable(3)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := f.Get("keep")
	if err != nil {
		t.Fatal(err)
	}
	snap := sealSnapshot(append(appendWALRecord(nil, opStore, fuzzStorePayload("emp", 2)), comparatorRecord()...))
	_, err = f.InstallSnapshot(snap)
	refusesComparator(t, err)
	if infos := f.List(); len(infos) != 1 || infos[0].Name != "keep" {
		t.Fatalf("store holds %+v after a refused snapshot, want keep alone", infos)
	}
	if got, err := f.Get("keep"); err != nil || !reflect.DeepEqual(got, keep) {
		t.Fatalf("a refused snapshot changed table keep (%v)", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a refused snapshot changed the log (%v)", err)
	}
}
