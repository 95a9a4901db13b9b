package bench

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/storage"
)

// countingConn wraps a net.Conn and tallies bytes in both directions —
// the client's view of bytes-over-wire.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// e17Schema is a two-column relation engineered for the conjunctive
// gate: grp splits the table ~50/50, code takes ~200 distinct values
// (~0.5% selectivity each).
func e17Schema() *relation.Schema {
	return relation.MustSchema("pairs",
		relation.Column{Name: "grp", Type: relation.TypeString, Width: 1},
		relation.Column{Name: "code", Type: relation.TypeString, Width: 4},
	)
}

// e17Table draws n tuples over the E17 schema.
func e17Table(n int, seed int64) (*relation.Table, error) {
	rng := rand.New(rand.NewSource(seed))
	t := relation.NewTable(e17Schema())
	for i := 0; i < n; i++ {
		grp := "A"
		if rng.Intn(2) == 1 {
			grp = "B"
		}
		code := fmt.Sprintf("c%03d", rng.Intn(200))
		if err := t.Insert(relation.Tuple{relation.String(grp), relation.String(code)}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// selectConjClientSide is E17's "before" arm: one batched round trip
// fetching every conjunct's full match set, then decryption and
// relation.Intersect client-side. It transfers and decrypts work
// proportional to the LEAST selective conjunct.
func selectConjClientSide(db *client.DB, eqs []relation.Eq) (*relation.Table, error) {
	parts, err := db.SelectMany(eqs)
	if err != nil {
		return nil, err
	}
	out := parts[0]
	for _, part := range parts[1:] {
		if out, err = relation.Intersect(out, part); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunE17 regenerates experiment E17: the conjunctive pushdown. On a
// 2-conjunct query whose predicates match ~50% and ~0.5% of a ≥10k-tuple
// table, it measures bytes-over-wire and end-to-end latency of
//
//   - the client-side path: one read request of one-conjunct plans
//     shipping every conjunct's full match set, decryption and
//     relation.Intersect client-side (selectConjClientSide above);
//     against
//   - the pushdown path: one read request of one plan holding every
//     conjunct, the server's selectivity-ordered planner narrowing
//     survivors, only the intersection shipped (DB.SelectConj).
//
// Both run against the same live server over an in-memory pipe with a
// byte counter on the client side, both warmed once (the server's
// result cache serves both paths alike), and a built-in gate requires
// the answers byte-identical to each other and to a plaintext
// evaluation — and both improvements ≥5x.
func RunE17(tuples int, seed int64) (*Table, error) {
	if tuples < 10000 {
		// The acceptance gate is specified at ≥10k tuples; smaller runs
		// would overstate the constant factors.
		tuples = 10000
	}
	t := &Table{
		ID: "E17",
		Title: fmt.Sprintf("conjunctive pushdown: planner vs client-side intersection (table: %d tuples, ~50%% ∧ ~0.5%%)",
			tuples),
		Header: []string{"path", "unit", "ns/op", "bytes/op", "allocs/op"},
		Notes: []string{
			"'client-side' ships every conjunct's full match set (one plan per conjunct) and intersects after decryption — transfer and client CPU scale with the LEAST selective conjunct",
			"'pushdown' plans by estimated selectivity server-side (one plan of all conjuncts) and ships only the intersection",
			"both paths measured warm against the same server: the result cache accelerates both alike, so the gap is pure transfer+decrypt+intersect",
		},
	}

	key, err := crypto.RandomKey()
	if err != nil {
		return nil, err
	}
	table, err := e17Table(tuples, seed)
	if err != nil {
		return nil, err
	}
	scheme, err := core.New(key, table.Schema(), core.Options{})
	if err != nil {
		return nil, err
	}

	store := storage.NewMemory()
	srv := server.New(store, nil)
	cliSide, srvSide := net.Pipe()
	go srv.ServeConn(srvSide)
	var onWire atomic.Int64
	conn := client.NewConn(countingConn{Conn: cliSide, bytes: &onWire})
	defer conn.Close()
	db := client.NewDB(conn, scheme, "pairs")
	if err := db.CreateTable(table); err != nil {
		return nil, err
	}
	db.PinRoot(nil, 0) // measure the plain, unverified paths

	conj := []relation.Eq{
		{Column: "grp", Value: relation.String("A")},
		{Column: "code", Value: relation.String("c007")},
	}

	// Plaintext reference and warm-up of both protocol paths.
	want, err := relation.Select(table, relation.And{Preds: []relation.Pred{conj[0], conj[1]}})
	if err != nil {
		return nil, err
	}
	clientOut, err := selectConjClientSide(db, conj)
	if err != nil {
		return nil, err
	}
	pushOut, err := db.SelectConj(conj)
	if err != nil {
		return nil, err
	}
	if clientOut.Sorted().String() != pushOut.Sorted().String() {
		return nil, fmt.Errorf("bench: e17 gate: pushdown result differs from client-side intersection")
	}
	if pushOut.Sorted().String() != want.Sorted().String() {
		return nil, fmt.Errorf("bench: e17 gate: pushdown result differs from plaintext evaluation (%d vs %d tuples)",
			pushOut.Len(), want.Len())
	}

	type side struct {
		label string
		run   func() error
	}
	sides := []side{
		{"client-side: SelectMany + Intersect", func() error {
			_, err := selectConjClientSide(db, conj)
			return err
		}},
		{"pushdown: one-plan planner", func() error {
			_, err := db.SelectConj(conj)
			return err
		}},
	}
	var nsPerOp [2]float64
	var bytesPerOp [2]float64
	for i, s := range sides {
		start := onWire.Load()
		var ops int64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if err := s.run(); err != nil {
					b.Fatal(err)
				}
			}
			atomic.AddInt64(&ops, int64(b.N))
		})
		total := onWire.Load() - start
		bytesPerOp[i] = float64(total) / float64(ops)
		nsPerOp[i] = float64(r.NsPerOp())
		t.AddRow(s.label, "per conj query",
			fmt.Sprintf("%d", r.NsPerOp()),
			fmt.Sprintf("%.0f", bytesPerOp[i]),
			fmt.Sprintf("%d", r.AllocsPerOp()))
	}

	latencyX := nsPerOp[0] / nsPerOp[1]
	bytesX := bytesPerOp[0] / bytesPerOp[1]
	t.Notes = append(t.Notes, fmt.Sprintf(
		"pushdown vs client-side: %.1fx lower end-to-end latency, %.1fx fewer bytes over the wire (%d matching tuples shipped instead of every conjunct's match set)",
		latencyX, bytesX, pushOut.Len()))
	if latencyX < 5 || bytesX < 5 {
		return nil, fmt.Errorf("bench: e17 gate: improvements below 5x (latency %.2fx, bytes %.2fx)", latencyX, bytesX)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"correctness gate: pushdown, client-side intersection and plaintext σ∧σ evaluation all agree (%d tuples); ≥5x gate passed",
		pushOut.Len()))
	return t, nil
}
