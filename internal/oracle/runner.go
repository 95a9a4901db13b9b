package oracle

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/fault"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Runner runs one history on several topologies side by side, holding
// each to a model of its table.
type Runner struct {
	tb     testing.TB
	scheme ph.Scheme
	tiers  []*tier
	done   History
	Seen   Tally // what the reads saw, by cell
}

// New starts topos with no table. A nil scheme is the paper's
// construction under a fresh key over workload.EmployeeSchema.
func New(tb testing.TB, scheme ph.Scheme, topos ...Topology) *Runner {
	tb.Helper()
	if scheme == nil {
		key, err := crypto.RandomKey()
		if err == nil {
			scheme, err = core.New(key, workload.EmployeeSchema(), core.Options{})
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	r := &Runner{tb: tb, scheme: scheme, Seen: Tally{}}
	tb.Cleanup(r.Close)
	for _, topo := range topos {
		t := &tier{Topology: topo, tb: tb, scheme: scheme, table: scheme.Schema().Name, model: model{nil}}
		r.tiers = append(r.tiers, t)
		if err := t.start(); err != nil {
			tb.Fatal(err)
		}
	}
	return r
}

// Close shuts every topology down.
func (r *Runner) Close() {
	for _, t := range r.tiers {
		t.close()
	}
	r.tiers = nil
}

// Do runs ops and fails the test, printing the history so far, at the
// first step that breaks a check.
func (r *Runner) Do(ops ...Op) {
	r.tb.Helper()
	if err := r.run(ops); err != nil {
		r.tb.Fatalf("%v\nhistory:\n%v", err, r.done)
	}
}

// run runs h and returns the first failed check.
func (r *Runner) run(h History) error {
	for _, op := range h {
		r.done = append(r.done, op)
		var err error
		if op.Kind >= OpSelect {
			err = r.read(op)
		} else {
			for _, t := range r.tiers {
				if err = r.mutate(t, op); err != nil {
					err = fmt.Errorf("%s: %w", t.Name, err)
					break
				}
				if t.f != nil { // the follower may hold any table the model has been
					t.f.past = slices.Compact(append(t.f.past, t.model...))
				}
			}
		}
		if err != nil {
			return fmt.Errorf("step %d (%v): %w", len(r.done)-1, op, err)
		}
	}
	return nil
}

// Stores returns the stores behind topology i, in shard order.
func (r *Runner) Stores(i int) []*storage.Store { return r.tiers[i].stores }

// DB returns topology i's client that pins the roots.
func (r *Runner) DB(i int) *client.DB { return r.tiers[i].db }

// Plain returns topology i's client that pins no root.
func (r *Runner) Plain(i int) *client.DB { return r.tiers[i].plain }

// Tap returns the tap on topology i's connections to its node (shard)
// n; a single server is node 0, and its follower node 1.
func (r *Runner) Tap(i, n int) *Tap { return r.tiers[i].taps[n] }

// Follower returns Replicated topology i's follower.
func (r *Runner) Follower(i int) *replica.Follower { return r.tiers[i].f.Follower }

// Link returns the switch that cuts Replicated topology i's ship link,
// to cut or heal it without the steps' tearing and waiting.
func (r *Runner) Link(i int) *fault.Switch { return &r.tiers[i].f.cut }

// model is what a topology's table may be: one table, or — after a
// fault left a mutation unacknowledged — each table it may have become.
// A nil entry is no table.
type model []*relation.Table

// then is the model after a mutation that happened (ok) or may have.
func (m model) then(apply func(*relation.Table) *relation.Table, ok bool) model {
	var out model
	if !ok {
		out = m
	}
	for _, t := range m {
		next := apply(t)
		if !slices.ContainsFunc(out, func(o *relation.Table) bool { return o == next || o != nil && next != nil && sameRows(o, next) }) {
			out = append(out, next)
		}
	}
	return out
}

// answers reports whether got is op's answer on one table m may be: a
// store answers every select of a batch from one cut.
func (m model) answers(op Op, got []*relation.Table) bool {
	return slices.ContainsFunc(m, func(t *relation.Table) bool { return t != nil && diff(got, op.want(t)) == nil })
}

// some is one of the tables m may be, nil if none.
func (m model) some() *relation.Table {
	if i := slices.IndexFunc(m, func(t *relation.Table) bool { return t != nil }); i >= 0 {
		return m[i]
	}
	return nil
}

func (m model) absent() bool { return m.some() == nil }

func (r *Runner) mutate(t *tier, op Op) error {
	var err error
	apply := func(*relation.Table) *relation.Table { return nil }
	switch op.Kind {
	case OpPut:
		tbl := relation.NewTable(r.scheme.Schema())
		for _, row := range op.Rows {
			tbl.MustInsert(row...)
		}
		err, apply = t.db.CreateTable(tbl), func(*relation.Table) *relation.Table { return tbl }
	case OpAppend:
		var dial func() (*client.Conn, error)
		if op.Workers > 0 {
			dial = func() (*client.Conn, error) { return t.dial(0) }
		}
		err = t.db.InsertBatch(dial, op.Workers, op.Chunk, op.Rows...)
		apply = func(old *relation.Table) *relation.Table {
			if old != nil {
				old = old.Clone()
				for _, row := range op.Rows {
					old.MustInsert(row...)
				}
			}
			return old
		}
	case OpDrop:
		err = t.db.Drop()
	case OpCompact:
		for _, st := range t.stores {
			if err := st.Compact(); err != nil && !t.faulty() {
				return fmt.Errorf("compact: %w", err)
			}
		}
		return nil
	case OpReopen:
		return t.reopen(op.Fault)
	case OpCut, OpHeal:
		if t.f != nil {
			t.f.cut.Set(op.Kind == OpCut)
			t.f.serve(t.servers[0]) // tear the link's connections
		}
		return t.catchUp(true) // nothing to catch up over a cut link
	case OpRestart, OpReplace:
		return t.restart(op.Kind == OpReplace)
	}
	switch {
	case err == nil && op.Kind != OpPut && t.model.absent():
		return fmt.Errorf("%v of a table that is not there succeeded", op.Kind)
	case err == nil:
		t.model = slices.DeleteFunc(t.model.then(apply, true), func(m *relation.Table) bool { return m == nil && op.Kind == OpAppend })
	case t.model.absent() && op.Kind != OpPut:
	case t.faulty():
		// An unacknowledged mutation may or may not have happened, and
		// the store refuses writes until it is reopened.
		t.model, t.diverged = t.model.then(apply, false), true
		r.Seen.cell(op.Kind, false, t.Name).Faulted++
		if len(t.model) > 4 {
			return t.reopen(fault.FilePlan{})
		}
	default:
		return err
	}
	return nil
}

// read runs a read on every topology, and again tampered if asked. A
// topology whose table is certain must answer σ of it; one in doubt may
// refuse, or answer σ of a table it may be; a plain answer its follower
// served may be σ of any table the follower may hold. Certain answers of
// topologies that no fault has set apart must agree with each other.
func (r *Runner) read(op Op) error {
	var first []*relation.Table
	var from string
	for _, t := range r.tiers {
		if err := t.catchUp(false); err != nil {
			return fmt.Errorf("%s: %w", t.Name, err)
		}
		got, byFollower, err := t.ask(op, op.Verified)
		// A plain answer from the follower may be σ of any table the
		// follower may hold. A verified one is held to the model whoever
		// served it: after a drop the client's pin verifies no answer
		// (DB.Drop), and so does the pin it persisted when reopened.
		doubt, may := len(t.model) > 1, t.model
		stale := byFollower && !op.Verified
		if stale {
			may = t.f.past
		}
		switch {
		case errors.Is(err, errUnready):
			return fmt.Errorf("%s: %w", t.Name, err)
		case err != nil && (t.model.absent() || doubt):
			continue
		case err != nil:
			return fmt.Errorf("%s: %w", t.Name, err)
		case may.absent():
			return fmt.Errorf("%s: answered a read of a table that is not there", t.Name)
		case !may.answers(op, got):
			return fmt.Errorf("%s: Definition 1.1, stale=%v: %w", t.Name, stale, diff(got, op.want(may.some())))
		}
		if byFollower {
			r.Seen.cell(op.Kind, op.Verified, t.Name+" follower").count(got)
		}
		if doubt || stale {
			continue
		}
		c := r.Seen.cell(op.Kind, op.Verified, t.Name)
		c.count(got)
		switch {
		case t.diverged:
		case first == nil:
			first, from = got, t.Name
		case diff(got, first) != nil:
			return fmt.Errorf("%s and %s disagree: %w", from, t.Name, diff(got, first))
		}
		if !op.Tamper || !op.Verified {
			continue
		}
		// Each node lies alone in turn: the client must check every
		// node's answer, not some.
		for n := range t.taps {
			if err := r.lie(t, n, op); err != nil {
				return fmt.Errorf("%s: %w", t.Name, err)
			}
		}
	}
	return nil
}

// lie serves a verified read again with node n's answers tampered: the
// client must refuse them by a failed verification or, the follower's
// alone, by quarantine and the primary's true answer. The follower lies
// with its primary, or it would answer in its place; alone, it lies only
// caught up (a stale one is refused anyway) and not for a download (it
// serves none).
func (r *Runner) lie(t *tier, n int, op Op) error {
	liars, cell, alone := t.taps[n:n+1], r.Seen.cell(op.Kind, true, t.Name), t.f != nil && n == 1
	switch {
	case t.f != nil && n == 0:
		liars = t.taps
	case alone && (op.Kind == OpAll || t.f.cut.On()):
		return nil
	case alone:
		if err := t.catchUp(true); err != nil {
			return err
		}
		cell = r.Seen.cell(op.Kind, true, t.Name+" follower")
	}
	for _, l := range liars {
		if op.Kind == OpAll {
			l.RewriteTable(TamperTable)
		} else {
			l.Rewrite(Tamper)
		}
	}
	got, byFollower, err := t.ask(op, true)
	for _, l := range liars {
		l.Rewrite(nil)
		l.RewriteTable(nil)
	}
	switch {
	case !alone && (err == nil || !strings.Contains(err.Error(), "verification failed")):
		return fmt.Errorf("an answer tampered by node %d was not refused by verification: %v", n, err)
	case alone && (err != nil || byFollower || t.db.ReadStats().ReplicaFailures == 0):
		return fmt.Errorf("an answer the follower tampered was not refused and failed over (accepted from it: %v): %v", byFollower, err)
	case alone && diff(got, op.want(t.model[0])) != nil:
		return fmt.Errorf("failed over from a lying follower: %w", diff(got, op.want(t.model[0])))
	}
	cell.Rejected++
	return nil
}

// errUnready is a follower that passed a read answer and was still not
// Ready after the read. Ready only goes from false to true in one
// follower's life, so it answered before it was Ready.
var errUnready = errors.New("the follower answered a read before it was Ready")

// ask runs op's read on the pinned client or the plain one, and says
// whether the follower answered it (ReadStats.ReplicaReads).
func (t *tier) ask(op Op, verified bool) ([]*relation.Table, bool, error) {
	db := t.plain
	if verified {
		db = t.db
	}
	tap := t.taps[len(t.taps)-1] // the follower's, on a Replicated topology
	reads, answers := db.ReadStats().ReplicaReads, tap.answers.Load()
	got, err := op.on(db)
	if t.f != nil && tap.answers.Load() > answers && !t.f.Ready() {
		return nil, false, errUnready
	}
	return got, db.ReadStats().ReplicaReads > reads, err
}

// on runs op's read on db.
func (op Op) on(db *client.DB) ([]*relation.Table, error) {
	one := func(t *relation.Table, err error) ([]*relation.Table, error) { return []*relation.Table{t}, err }
	switch op.Kind {
	case OpMany:
		return db.SelectMany(op.Eqs)
	case OpConj:
		return one(db.SelectConj(op.Eqs))
	case OpAll:
		return one(db.SelectAll())
	}
	return one(db.Select(op.Eqs[0]))
}

// want is what op's read must answer on the plaintext m.
func (op Op) want(m *relation.Table) []*relation.Table {
	if op.Kind == OpAll {
		return []*relation.Table{m}
	}
	var preds []relation.Pred
	for _, eq := range op.Eqs {
		preds = append(preds, eq)
	}
	if op.Kind != OpMany {
		preds = []relation.Pred{relation.And{Preds: preds}}
	}
	out := make([]*relation.Table, len(preds))
	for i, p := range preds {
		var err error
		if out[i], err = relation.Select(m, p); err != nil {
			panic(err) // the oracle's own equalities always bind
		}
	}
	return out
}

// diff compares answers with what they should be, as multisets of rows.
func diff(got, want []*relation.Table) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers to %d selections", len(got), len(want))
	}
	for i := range got {
		if !sameRows(got[i], want[i]) {
			return fmt.Errorf("answer %d decrypts to %d rows, σ of the plaintext is %d:\n%vwant\n%v",
				i, got[i].Len(), want[i].Len(), got[i].Sorted(), want[i].Sorted())
		}
	}
	return nil
}

func sameRows(a, b *relation.Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	n := make(map[string]int, a.Len())
	for _, tp := range a.Tuples() {
		n[string(relation.EncodeTuple(tp))]++
	}
	for _, tp := range b.Tuples() {
		k := string(relation.EncodeTuple(tp))
		if n[k] == 0 {
			return false
		}
		n[k]--
	}
	return true
}

// Cell is one kind of operation on one topology.
type Cell struct {
	Kind     Kind
	Verified bool
	Topology string
}

// Counts is what one cell saw: reads answered with rows and empty, and
// tampered answers refused; mutations an injected fault refused.
type Counts struct{ NonEmpty, Empty, Rejected, Faulted int }

// Tally counts by cell.
type Tally map[Cell]*Counts

func (c *Counts) count(answers []*relation.Table) {
	for _, a := range answers {
		if a.Len() == 0 {
			c.Empty++
		} else {
			c.NonEmpty++
		}
	}
}

func (s Tally) cell(k Kind, verified bool, topo string) *Counts {
	c := Cell{k, verified, topo}
	if s[c] == nil {
		s[c] = &Counts{}
	}
	return s[c]
}

// Vacant names the cells of the shape × verified × topology matrix that
// saw no answer with rows, no empty answer or, verified, no refused
// tampering — and, on a topology with a follower, the cells of every
// shape but downloads (which go to the primary) that the follower served
// no answer in or, verified, never lied in and was refused.
func (s Tally) Vacant(topos ...Topology) error {
	var gaps []string
	for _, topo := range topos {
		for k := OpSelect; k <= OpAll; k++ {
			for _, verified := range []bool{false, true} {
				if c := s[Cell{k, verified, topo.Name}]; c == nil || c.NonEmpty == 0 || c.Empty == 0 || verified && c.Rejected == 0 {
					gaps = append(gaps, fmt.Sprintf("%s %v verified=%v: %+v", topo.Name, k, verified, c))
				}
				if c := s[Cell{k, verified, topo.Name + " follower"}]; topo.follow && k != OpAll && (c == nil || c.NonEmpty+c.Empty == 0 || verified && c.Rejected == 0) {
					gaps = append(gaps, fmt.Sprintf("%s follower %v verified=%v: %+v", topo.Name, k, verified, c))
				}
			}
		}
	}
	if gaps != nil {
		return errors.New("cells never exercised: " + strings.Join(gaps, "; "))
	}
	return nil
}

func (s Tally) String() string {
	var rows []string
	for k, c := range s {
		row := fmt.Sprintf("%-10s %-7v refused by an injected fault %d", k.Topology, k.Kind, c.Faulted)
		if k.Kind >= OpSelect {
			row = fmt.Sprintf("%-10s %-7v verified=%-5v  with rows %5d  empty %5d  tampered and refused %4d",
				k.Topology, k.Kind, k.Verified, c.NonEmpty, c.Empty, c.Rejected)
		}
		rows = append(rows, row)
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}
