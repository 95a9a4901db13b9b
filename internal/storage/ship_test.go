package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// shipCursor is a test follower's position in the primary's log.
type shipCursor struct {
	epoch, seq uint64
}

// tailOnce runs one follower poll: read a chunk at the cursor and apply
// it; on rotation (or first contact) bootstrap from a snapshot the way
// the real follower does and resume from its embedded cursor. Returns
// whether the follower is caught up with the head the poll observed.
func tailOnce(t *testing.T, primary, follower *Store, cur *shipCursor, maxBytes uint32) bool {
	t.Helper()
	recs, epoch, start, head, err := primary.ReadLog(cur.epoch, cur.seq, maxBytes)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if epoch != cur.epoch || start != cur.seq {
		var snap bytes.Buffer
		if _, err := primary.WriteSnapshot(&snap); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
		sc, err := follower.InstallSnapshot(snap.Bytes())
		if err != nil {
			t.Fatalf("InstallSnapshot: %v", err)
		}
		cur.epoch, cur.seq = sc.Epoch, sc.Seq
		return false
	}
	for _, rec := range recs {
		if err := follower.ApplyShipped(rec); err != nil {
			// Divergence: void the cursor and re-bootstrap next poll.
			cur.epoch, cur.seq = 0, 0
			return false
		}
	}
	cur.seq += uint64(len(recs))
	return cur.seq >= head
}

// catchUp polls until the follower reaches the primary's head.
func catchUp(t *testing.T, primary, follower *Store, cur *shipCursor) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if tailOnce(t, primary, follower, cur, 1<<20) {
			return
		}
	}
	t.Fatal("follower never caught up")
}

// assertSameState fails unless the two stores hold identical tables with
// identical authenticated roots — the bit-for-bit equivalence the
// trustless replica model rests on.
func assertSameState(t *testing.T, primary, follower *Store) {
	t.Helper()
	pl, fl := primary.List(), follower.List()
	if !reflect.DeepEqual(pl, fl) {
		t.Fatalf("directories differ:\nprimary:  %v\nfollower: %v", pl, fl)
	}
	for _, info := range pl {
		pt, err := primary.Get(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		ft, err := follower.Get(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt, ft) {
			t.Fatalf("table %q differs between primary and follower", info.Name)
		}
		proot, _, _, err := primary.Root(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		froot, _, _, err := follower.Root(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(proot, froot) {
			t.Fatalf("table %q: follower root %x != primary root %x", info.Name, froot, proot)
		}
	}
}

func TestShipBootstrapAndRoots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Put("emp", fakeTable(4)); err != nil {
		t.Fatal(err)
	}
	if err := p.Append("emp", fakeTable(3).Tuples); err != nil {
		t.Fatal(err)
	}
	if err := p.Put("dept", fakeTable(2)); err != nil {
		t.Fatal(err)
	}
	if err := p.Put("gone", fakeTable(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Drop("gone"); err != nil {
		t.Fatal(err)
	}

	f := NewMemory()
	var cur shipCursor
	catchUp(t, p, f, &cur)
	assertSameState(t, p, f)

	// Incremental tail: new writes arrive without re-bootstrapping.
	seqBefore := cur.seq
	if err := p.Append("dept", fakeTable(5).Tuples); err != nil {
		t.Fatal(err)
	}
	catchUp(t, p, f, &cur)
	if cur.seq != seqBefore+1 {
		t.Fatalf("cursor advanced %d -> %d, want exactly one record", seqBefore, cur.seq)
	}
	assertSameState(t, p, f)
}

func TestShipSmallBudgetResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f := NewMemory()
	var cur shipCursor
	catchUp(t, p, f, &cur) // bootstrap first, so the records below are tailed
	for i := 0; i < 8; i++ {
		if err := p.Put(fmt.Sprintf("t%d", i), fakeTable(2)); err != nil {
			t.Fatal(err)
		}
	}
	polls := 0
	for !tailOnce(t, p, f, &cur, 1) { // 1-byte budget: one record per poll
		polls++
		if polls > 100 {
			t.Fatal("never caught up under tiny budget")
		}
	}
	if polls < 7 {
		t.Fatalf("caught up in %d polls; a 1-byte budget should ship one record each", polls)
	}
	assertSameState(t, p, f)
}

func TestShipRotatedCursorRebootstraps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Put("emp", fakeTable(3)); err != nil {
		t.Fatal(err)
	}
	if err := p.Append("emp", fakeTable(2).Tuples); err != nil {
		t.Fatal(err)
	}
	f := NewMemory()
	var cur shipCursor
	catchUp(t, p, f, &cur)
	oldEpoch := cur.epoch

	// Rotate under the follower's feet.
	if err := p.Drop("emp"); err != nil {
		t.Fatal(err)
	}
	if err := p.Put("fresh", fakeTable(6)); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := p.LogEpoch(); got == oldEpoch {
		t.Fatal("Compact did not rotate the epoch")
	}
	catchUp(t, p, f, &cur)
	if cur.epoch == oldEpoch {
		t.Fatal("follower cursor kept the rotated epoch")
	}
	assertSameState(t, p, f)
}

func TestShipHostileCursorClamped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Put("emp", fakeTable(1)); err != nil {
		t.Fatal(err)
	}
	epoch, head := p.LogHead()
	recs, gotEpoch, start, gotHead, err := p.ReadLog(epoch, head+1<<40, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 || gotEpoch != epoch || gotHead != head {
		t.Fatalf("hostile cursor answered (epoch %d, start %d, head %d), want bootstrap", gotEpoch, start, gotHead)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want the full bootstrap", len(recs))
	}
}

func TestShipEpochSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put("emp", fakeTable(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Append("emp", fakeTable(1).Tuples); err != nil {
		t.Fatal(err)
	}
	e1 := p.LogEpoch()
	if e1 == 0 {
		t.Fatal("durable store has epoch 0")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if e2 := p2.LogEpoch(); e2 != e1 {
		t.Fatalf("epoch changed across restart: %d -> %d (followers would re-bootstrap needlessly)", e1, e2)
	}
	// A restart must also preserve the record sequence: the reopened head
	// equals the replayed record count.
	if _, head := p2.LogHead(); head != 2 {
		t.Fatalf("reopened head %d, want 2 (store + nothing lost)", head)
	}
}

func TestShipLostSidecarRotates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put("emp", fakeTable(1)); err != nil {
		t.Fatal(err)
	}
	e1 := p.LogEpoch()
	p.Close()
	if err := os.Remove(path + epochSuffix); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.LogEpoch() == e1 {
		t.Fatal("lost sidecar reused the old epoch; stale cursors could resolve wrongly")
	}
}

func TestMemoryStoreHasNoLogToShip(t *testing.T) {
	s := NewMemory()
	if _, _, _, _, err := s.ReadLog(0, 0, 1<<20); err == nil {
		t.Fatal("in-memory store served a log ship")
	}
	if e, h := s.LogHead(); e != 0 || h != 0 {
		t.Fatalf("in-memory LogHead = (%d, %d), want zeros", e, h)
	}
}

// TestCompactRacingActiveTail is the satellite fault-injection test: a
// writer mutates the primary and Compact runs repeatedly while a
// follower tails the log. The follower must either follow the stream or
// re-bootstrap on rotation — never diverge — and once the dust settles
// its state must be byte-identical to the primary's. Run under -race.
func TestCompactRacingActiveTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	p, err := OpenOptions(path, Options{Sync: SyncNever}) // keep the loop fast
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Put("emp", fakeTable(1)); err != nil {
		t.Fatal(err)
	}

	f := NewMemory()
	var cur shipCursor
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: appends, replacements, drops
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 5 {
			case 0, 1, 2:
				if err := p.Append("emp", fakeTable(1).Tuples); err != nil {
					t.Error(err)
					return
				}
			case 3:
				if err := p.Put(fmt.Sprintf("side%d", i%7), fakeTable(2)); err != nil {
					t.Error(err)
					return
				}
			case 4:
				p.Drop(fmt.Sprintf("side%d", (i-1)%7)) // may or may not exist
			}
		}
	}()
	go func() { // compactor
		defer wg.Done()
		for i := 0; i < 25; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := p.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Tail while both are running.
	for i := 0; i < 400; i++ {
		tailOnce(t, p, f, &cur, 1<<18)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	catchUp(t, p, f, &cur)
	assertSameState(t, p, f)
}
