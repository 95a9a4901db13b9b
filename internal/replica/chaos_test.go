package replica_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/oracle"
)

// bootstrapping puts a table wide enough for a snapshot of several
// chunks, and replaces the follower with one on an empty disk behind a
// cut link; it returns the snapshot's size.
func bootstrapping(t *testing.T, r *oracle.Runner) uint64 {
	t.Helper()
	r.Do(oracle.Put(staff(6000)), oracle.Cut(), oracle.Replace())
	_, _, _, total, _, err := r.Stores(0)[0].ReadSnapshot(0, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// midTransfer heals the link without waiting and returns once the
// follower has fetched a first chunk of the snapshot, installing none.
func midTransfer(t *testing.T, r *oracle.Runner) {
	t.Helper()
	r.Link(0).Set(false)
	for start := time.Now(); r.Follower(0).Status().SnapshotBytes == 0; time.Sleep(50 * time.Microsecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("the transfer never got under way: %+v", r.Follower(0).Status())
		}
	}
	if r.Follower(0).Status().Snapshots != 0 {
		t.Fatal("the snapshot was installed before the fault could land mid-transfer")
	}
}

// TestChaosPrimaryCrashMidSnapshotTransfer crashes the primary while a
// follower is mid-way through fetching its bootstrap snapshot. The
// restarted primary replays the same log, so the snapshot is the same
// and the transfer resumes at its offset — every byte fetched once.
func TestChaosPrimaryCrashMidSnapshotTransfer(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	total := bootstrapping(t, r)
	midTransfer(t, r)
	r.Do(oracle.Reopen(fault.FilePlan{}), oracle.Heal(), oracle.Select(true, hr))
	if st := r.Follower(0).Status(); st.Snapshots != 1 || st.SnapshotBytes != total {
		t.Fatalf("the follower installed %d snapshots from %d bytes of a %d-byte snapshot, want 1 from all of it once: the transfer restarted instead of resuming", st.Snapshots, st.SnapshotBytes, total)
	}
}

// TestChaosPartitionMidBootstrap partitions the ship link in the middle
// of the snapshot transfer. Progress stops dead under the partition and
// resumes from the same offset when it heals: the bytes fetched survive,
// with no reset and no refetch.
func TestChaosPartitionMidBootstrap(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	total := bootstrapping(t, r)
	midTransfer(t, r)
	r.Link(0).Set(true)
	time.Sleep(10 * time.Millisecond) // let a round in flight drain
	f := r.Follower(0)
	b0 := f.Status().SnapshotBytes
	time.Sleep(30 * time.Millisecond)
	if st := f.Status(); st.SnapshotBytes != b0 || st.Snapshots != 0 {
		t.Fatalf("the transfer went on under a partition: %d -> %d bytes, %d installs", b0, st.SnapshotBytes, st.Snapshots)
	}
	r.Do(oracle.Heal(), oracle.Select(true, hr))
	if st := f.Status(); st.Snapshots != 1 || st.SnapshotBytes != total || st.Resets != 0 {
		t.Fatalf("the follower installed %d snapshots from %d bytes of a %d-byte snapshot with %d resets, want 1 from all of it once and none: the partition voided the transfer", st.Snapshots, st.SnapshotBytes, total, st.Resets)
	}
}

// TestChaosDiskFullFollowerConverges: the primary's disk fills under a
// stream of appends. While its log has failed, the tailing follower is
// refused with the failure named and applies nothing, rather than
// polling without pause for the record the head counts and the log never
// took. A new follower then bootstraps while the disk is full. The
// primary reopens without the append its log refused and, one write
// later, is at the cursor that append would have had: the follower must
// not hold it, but catch up with the durable state and serve a verified
// read.
func TestChaosDiskFullFollowerConverges(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(staff(3)), oracle.Reopen(fault.FilePlan{FailWriteAfterBytes: 4 << 10}))
	full := func() bool {
		c := r.Seen[oracle.Cell{Kind: oracle.OpAppend, Topology: "replicated"}]
		return c != nil && c.Faulted > 0
	}
	for i := 0; i < 100 && !full(); i++ {
		r.Do(oracle.Append(staff(9)[i%9]))
	}
	if !full() {
		t.Fatal("the appends never filled the disk")
	}
	f, refused := r.Follower(0), func(err error) bool { return err != nil && strings.Contains(err.Error(), "log has failed") }
	for start := time.Now(); !refused(f.Status().LastErr); time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("the tailing follower was never refused by the failed log: %+v", f.Status())
		}
	}
	applied := f.Status().RecordsApplied
	time.Sleep(20 * time.Millisecond)
	if st := f.Status(); st.RecordsApplied != applied || !refused(st.LastErr) {
		t.Fatalf("behind a failed log the follower applied %d records, then %d (last error %v)", applied, st.RecordsApplied, st.LastErr)
	}
	r.Do(oracle.Replace(), oracle.Reopen(fault.FilePlan{}), oracle.Append(staff(1)...), oracle.Heal(), oracle.Select(true, hr))
	if st := r.DB(0).ReadStats(); st.ReplicaReads != 1 || st.PrimaryReads != 0 {
		t.Fatalf("the read was not served by the follower: %+v", st)
	}
}

// TestChaosResetWindowUnverifiedReads is the window in which a follower
// has not caught up. A store behind the primary once answered a plain
// read short, with no error; the follower's Ready gate turns the window
// into refusals the client fails over from. The live case: a new
// follower installs a snapshot holding one of the three HR rows to come
// and is cut off before the poll that would make it Ready. One that
// polled first is Ready and has no window: the drill starts again.
func TestChaosResetWindowUnverifiedReads(t *testing.T) {
	for try := 0; try < 20; try++ {
		r := oracle.New(t, nil, oracle.Replicated())
		r.Do(oracle.Put(staff(1)), oracle.Replace(), oracle.Cut(), oracle.Append(staff(7)[1:]...), oracle.Select(false, hr))
		if r.Follower(0).Ready() {
			r.Close()
			continue
		}
		if st := r.Plain(0).ReadStats(); st.ReplicaFailures != 1 || st.Failovers != 1 || st.PrimaryReads != 1 {
			t.Fatalf("the read was not refused by the follower and failed over: %+v", st)
		}
		return
	}
	t.Fatal("every new follower was Ready before its link was cut")
}

// TestChaosDurableFollowerResume: a durable follower survives its own
// crash. Its store is a consistent cut with a known cursor, so the
// restarted follower is Ready at once and resumes tailing: no snapshot,
// no reset.
func TestChaosDurableFollowerResume(t *testing.T) {
	r := oracle.New(t, nil, oracle.Replicated())
	r.Do(oracle.Put(staff(30)), oracle.Heal())
	if got := r.Follower(0).Status().Snapshots; got != 1 {
		t.Fatalf("a new durable follower installed %d snapshots, want 1", got)
	}
	for i := range 3 {
		r.Do(oracle.Append(staff(i + 1)[i]))
	}
	r.Do(oracle.Heal(), oracle.Cut(), oracle.Restart())
	if !r.Follower(0).Ready() {
		t.Fatal("a restarted durable follower is not Ready at once")
	}
	r.Do(oracle.Append(staff(9)[8]), oracle.Select(false, hr), oracle.Heal(), oracle.Select(true, hr))
	if st := r.Follower(0).Status(); st.Snapshots != 0 || st.Resets != 0 {
		t.Fatalf("the restarted follower re-bootstrapped (%d snapshots, %d resets) instead of resuming its cursor", st.Snapshots, st.Resets)
	}
}
