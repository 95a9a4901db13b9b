package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/fault"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// follower is a Replicated topology's node 1: a replica.Follower on a
// durable store of its own, behind a read-only server gated on its
// Ready, fed over a ship link to the primary's current server.
type follower struct {
	*replica.Follower
	path string
	// past is every table the follower may hold: the model's tables
	// since it last caught up.
	past model

	cut   fault.Switch // a cut link tears its connections and refuses them
	mu    sync.Mutex
	srv   *server.Server // the primary's; nil while it is down
	conns []net.Conn
}

// linkDelay slows every read and write on the ship link, so that a new
// follower's first poll after its snapshot install — while it holds a
// table and is not yet Ready — outlasts the step that started it.
const linkDelay = 500 * time.Microsecond

func (f *follower) dial() (*client.Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.srv == nil {
		return nil, errors.New("the primary is down")
	}
	c, s := net.Pipe()
	go f.srv.ServeConn(s)
	f.conns = append(f.conns, c)
	return client.NewConn(fault.NewConn(c, fault.ConnPlan{Partition: &f.cut, Delay: linkDelay})), nil
}

// serve tears every connection the link has handed out and points it at
// srv.
func (f *follower) serve(srv *server.Server) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.conns {
		c.Close()
	}
	f.conns, f.srv = nil, srv
}

// restart starts the follower — crashing the one running, whose store
// is abandoned, not closed — on its disk, or on an empty one. On a live
// link to a primary whose log has not failed, a new empty one is left
// just after its snapshot install, before the poll that makes it Ready.
func (t *tier) restart(empty bool) error {
	if t.f == nil {
		return nil
	}
	if t.f.Follower != nil {
		t.f.Close()
		t.abandoned = append(t.abandoned, t.f.Store())
	}
	if empty {
		t.f.path = filepath.Join(t.tb.TempDir(), "follower.log")
	}
	st, err := storage.Open(t.f.path)
	if err != nil {
		return err
	}
	f := replica.New(t.f.dial, replica.Options{PollInterval: time.Millisecond, MaxBytes: 64 << 10, Store: st})
	t.f.Follower = f
	t.dials[1] = t.serve(t.tb, server.NewWithOptions(st, nil, server.Options{ReadOnly: true, Ready: f.Ready}))
	for start := time.Now(); empty && !t.f.cut.On() && t.stores[0].LogErr() == nil && f.Status().Snapshots == 0; time.Sleep(20 * time.Microsecond) {
		if time.Since(start) > 5*time.Second {
			return fmt.Errorf("a new follower installed no snapshot in 5 s: %+v", f.Status())
		}
	}
	return t.connect()
}

// catchUp waits until the follower is Ready at the primary's log head,
// holds it to the primary's roots there, and reconnects the clients: a
// client quarantines a failed follower for longer than most histories.
// Unless always, it does so only once a client has quarantined it. A cut
// link has nothing to catch up over, and a primary whose log failed, or
// that a fault left in doubt, may count a record its log never took.
func (t *tier) catchUp(always bool) error {
	quarantined := t.db.ReadStats().ReplicaFailures+t.plain.ReadStats().ReplicaFailures > 0
	if t.f == nil || t.f.cut.On() || len(t.model) > 1 || t.stores[0].LogErr() != nil || !always && !quarantined {
		return nil
	}
	for start := time.Now(); ; time.Sleep(100 * time.Microsecond) {
		st := t.f.Status()
		if epoch, head := t.stores[0].LogHead(); st.Ready && st.Epoch == epoch && st.Applied == head {
			if !sameState(t.stores[0], t.f.Store()) {
				return fmt.Errorf("the follower is at the primary's log head (%d,%d) and holds other tables", epoch, head)
			}
			t.f.past = slices.Clone(t.model)
			return t.connect()
		}
		if time.Since(start) > 5*time.Second {
			return fmt.Errorf("the follower did not catch up in 5 s: %+v", st)
		}
	}
}

// sameState reports whether two stores hold the same tables under the
// same roots: bit-identical tuples.
func sameState(a, b *storage.Store) bool {
	la, lb := a.List(), b.List()
	return len(la) == len(lb) && !slices.ContainsFunc(la, func(info wire.TableInfo) bool {
		ra, _, _, err := a.Root(info.Name)
		rb, _, _, err2 := b.Root(info.Name)
		return err != nil || err2 != nil || !bytes.Equal(ra, rb)
	})
}
