package replica_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/oracle"
	"repro/internal/relation"
)

// The follower's drills are scenarios of the Definition 1.1 oracle's
// Replicated topology: a durable primary and a follower of its log,
// every read checked against the model as TestDefinition11 checks it.
// Each drill adds the counts of replica.Status it is about.

var hr = oracle.Eq("dept", "HR")

// staff is n rows of workload.EmployeeSchema, a third of them in HR.
func staff(n int) []relation.Tuple {
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = relation.Tuple{relation.String(fmt.Sprintf("emp%04d", i)),
			relation.String([]string{"HR", "IT", "OPS"}[i%3]), relation.Int(int64(1000 * (1 + i%4)))}
	}
	return rows
}

// TestFollowerBootstrapsAndServesVerifiedReads: a follower replays the
// primary's log and serves a verified read that checks out against the
// root the client pinned at the primary.
func TestFollowerBootstrapsAndServesVerifiedReads(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(staff(2)), oracle.Heal(), oracle.Select(true, oracle.Eq("name", "emp0000")))
	if st := r.DB(0).ReadStats(); st.ReplicaReads != 1 || st.PrimaryReads != 0 {
		t.Fatalf("the verified read was not served by the follower: %+v", st)
	}
}

// TestFollowerResumesAfterTornStream: tearing the ship link while the
// follower tails the primary leaves it a cursor it resumes from — no
// reset, and the primary's roots once healed.
func TestFollowerResumesAfterTornStream(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(staff(50)), oracle.Heal())
	for i := range 10 {
		r.Do(oracle.Append(staff(i + 1)[i]), oracle.Cut(), oracle.Select(false, hr), oracle.Heal())
	}
	if st := r.Follower(0).Status(); st.Resets != 0 {
		t.Fatalf("torn streams caused %d resets; the cursor should have survived", st.Resets)
	}
}

// TestFollowerRestartRebootstraps: a follower replaced by one on an empty
// disk, as after losing its machine, bootstraps from one snapshot and
// catches up.
func TestFollowerRestartRebootstraps(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(staff(20)), oracle.Heal(), oracle.Append(staff(21)[20]), oracle.Replace(), oracle.Heal(), oracle.Select(true, hr))
	if st := r.Follower(0).Status(); st.Snapshots != 1 {
		t.Fatalf("the new follower installed %d snapshots, want 1", st.Snapshots)
	}
}

// TestPrimaryRestartMidShip: the primary crashes and recovers between
// polls. Same log file, same epoch: the follower's cursor stays valid
// and replication goes on without a reset.
func TestPrimaryRestartMidShip(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(staff(30)), oracle.Heal(), oracle.Reopen(fault.FilePlan{}), oracle.Append(staff(31)[30]), oracle.Heal())
	if st := r.Follower(0).Status(); st.Resets != 0 {
		t.Fatalf("a primary restart caused %d resets; its epoch is stable across restarts", st.Resets)
	}
}

// TestCompactionResetsFollower: compaction rotates the primary's log
// epoch, and the follower re-bootstraps from a snapshot of the compacted
// state — staying Ready, and serving the whole previous cut, the whole
// way.
func TestCompactionResetsFollower(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(staff(20)), oracle.Heal())
	for i := range 5 {
		r.Do(oracle.Append(staff(i + 1)[i]))
	}
	r.Do(oracle.Heal(), oracle.Cut(), oracle.Compact(), oracle.Append(staff(1)...), oracle.Select(false, hr))
	f := r.Follower(0)
	r.Link(0).Set(false)
	for start := time.Now(); f.Status().Snapshots < 2 && time.Since(start) < 10*time.Second; time.Sleep(100 * time.Microsecond) {
		// Mid-bootstrap the store still holds the whole cut before the
		// compaction (25 tuples), never an empty or partial table.
		if infos := f.Store().List(); !f.Ready() || len(infos) != 1 || infos[0].Tuples < 25 {
			t.Fatalf("the follower re-bootstrapping from a snapshot went ready=%v, tables %v", f.Ready(), infos)
		}
	}
	r.Do(oracle.Heal())
	if st := f.Status(); st.Resets == 0 || st.Snapshots != 2 {
		t.Fatalf("the compaction rotated the epoch but the follower did not re-bootstrap once: %d resets, %d snapshots", st.Resets, st.Snapshots)
	}
}

// TestFollowerAppliesConcurrentWrites: writes pour into the primary —
// appends to the table and puts of others — while the follower tails
// it, and it ends holding the primary's roots.
func TestFollowerAppliesConcurrentWrites(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(staff(5)))
	other, err := r.DB(0).Scheme().EncryptTable(relation.NewTable(r.DB(0).Scheme().Schema()))
	for i := 0; i < 200 && err == nil; i++ {
		r.Do(oracle.Append(staff(i%9 + 1)[i%9]))
		if i%50 == 49 {
			err = r.Stores(0)[0].Put(fmt.Sprintf("t%d", i), other)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	r.Do(oracle.Heal(), oracle.Many(true, hr, oracle.Eq("dept", "IT")))
}

// TestSnapshotCostFlatAsLogGrows: churn re-stores one table, so the
// primary's log grows with the rounds while its state does not. A new
// follower pays for the state, not the log: exactly one snapshot
// install, no log record replayed, and snapshot bytes flat across a
// ≥ 8× longer log, ending in the primary's roots.
func TestSnapshotCostFlatAsLogGrows(t *testing.T) {
	rounds := []int{1, 4, 16}
	heads := make([]uint64, len(rounds))
	snapBytes := make([]uint64, len(rounds))
	for i, w := range rounds {
		r := oracle.New(t, nil, oracle.Replicated())
		for range w {
			r.Do(oracle.Put(staff(200)))
		}
		_, heads[i] = r.Stores(0)[0].LogHead()
		r.Do(oracle.Replace(), oracle.Heal())
		st := r.Follower(0).Status()
		if st.Snapshots != 1 || st.RecordsApplied != 0 {
			t.Fatalf("%d rounds: the follower installed %d snapshots and applied %d log records, want 1 and 0", w, st.Snapshots, st.RecordsApplied)
		}
		snapBytes[i] = st.SnapshotBytes
		r.Close()
	}
	if heads[2] < 8*heads[0] {
		t.Fatalf("churn grew the log only %d -> %d records, want >= 8x", heads[0], heads[2])
	}
	if 2*snapBytes[2] > 3*snapBytes[0] {
		t.Fatalf("snapshot bytes grew %d -> %d over a %dx longer log, want <= 1.5x", snapBytes[0], snapBytes[2], heads[2]/heads[0])
	}
}
