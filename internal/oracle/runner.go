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
// n; a single server is node 0.
func (r *Runner) Tap(i, n int) *Tap { return r.tiers[i].taps[n] }

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

func (m model) absent() bool {
	return !slices.ContainsFunc(m, func(t *relation.Table) bool { return t != nil })
}

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
		err = t.drop()
	case OpCompact:
		for _, st := range t.stores {
			if err := st.Compact(); err != nil && !t.faulty() {
				return fmt.Errorf("compact: %w", err)
			}
		}
		return nil
	case OpReopen:
		return t.reopen(op.Fault)
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
// refuse, or answer σ of a table it may be. Certain topologies that no
// fault has set apart must agree with each other.
func (r *Runner) read(op Op) error {
	var first []*relation.Table
	var from string
	for _, t := range r.tiers {
		got, err := t.ask(op, op.Verified)
		doubt := len(t.model) > 1
		switch {
		case err != nil && (t.model.absent() || doubt):
			continue
		case err != nil:
			return fmt.Errorf("%s: %w", t.Name, err)
		case t.model.absent():
			return fmt.Errorf("%s: answered a read of a table that is not there", t.Name)
		case !slices.ContainsFunc(t.model, func(m *relation.Table) bool { return m != nil && diff(got, op.want(m)) == nil }):
			return fmt.Errorf("%s: Definition 1.1: %w", t.Name, diff(got, op.want(t.model[0])))
		case doubt:
			continue
		}
		c := r.Seen.cell(op.Kind, op.Verified, t.Name)
		for _, a := range got {
			if a.Len() == 0 {
				c.Empty++
			} else {
				c.NonEmpty++
			}
		}
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
		for n, tap := range t.taps {
			tap.Rewrite(Tamper)
			_, err := t.ask(op, true)
			tap.Rewrite(nil)
			if err == nil || !strings.Contains(err.Error(), "verification failed") {
				return fmt.Errorf("%s: an answer tampered by node %d was not refused by verification: %v", t.Name, n, err)
			}
			c.Rejected++
		}
	}
	return nil
}

// ask runs op's read on the pinned client or the plain one.
func (t *tier) ask(op Op, verified bool) ([]*relation.Table, error) {
	db := t.plain
	if verified {
		db = t.db
	}
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
	return a.Len() == b.Len()
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

func (s Tally) cell(k Kind, verified bool, topo string) *Counts {
	c := Cell{k, verified, topo}
	if s[c] == nil {
		s[c] = &Counts{}
	}
	return s[c]
}

// Vacant names the cells of the shape × verified × topology matrix that
// saw no answer with rows, no empty answer or, verified, no refused
// tampering.
func (s Tally) Vacant(topos ...Topology) error {
	var gaps []string
	for _, topo := range topos {
		for k := OpSelect; k <= OpAll; k++ {
			for _, verified := range []bool{false, k != OpAll} {
				if c := s[Cell{k, verified, topo.Name}]; c == nil || c.NonEmpty == 0 || c.Empty == 0 || verified && c.Rejected == 0 {
					gaps = append(gaps, fmt.Sprintf("%s %v verified=%v: %+v", topo.Name, k, verified, c))
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
