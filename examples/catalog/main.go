// Catalog: several outsourced tables, one passphrase. A JSON config (no
// keys inside — per-table keys are derived from the master passphrase)
// attaches an employee table and a patient table, each under the paper's
// SWP construction and its own key; SQL is routed to the right table by
// its FROM clause.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/workload"
)

// pickSalary returns the salary of some HR employee so the example's
// conjunction has a non-empty intersection.
func pickSalary(t *relation.Table) int64 {
	s := t.Schema()
	dept, salary := s.ColumnIndex("dept"), s.ColumnIndex("salary")
	for _, tp := range t.Tuples() {
		if tp[dept].Equal(relation.String("HR")) {
			return tp[salary].Integer()
		}
	}
	return 7500
}

func main() {
	// Eve.
	srv := server.New(storage.NewMemory(), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// The setup Alex persists: table names, schemas, schemes — no keys.
	cfg := &client.Config{Tables: []client.TableConfig{
		{
			Remote: "payroll",
			Scheme: core.SchemeID,
			Schema: client.SchemaConfigOf(workload.EmployeeSchema()),
		},
		{
			Remote: "clinic",
			Scheme: core.SchemeID,
			Schema: client.SchemaConfigOf(workload.HospitalSchema()),
		},
	}}
	dir, err := os.MkdirTemp("", "catalog-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfgPath := filepath.Join(dir, "client.json")
	if err := client.SaveConfig(cfgPath, cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("config written to %s (no key material inside)\n", cfgPath)

	// Alex: one passphrase unlocks the whole catalog.
	loaded, err := client.LoadConfig(cfgPath)
	if err != nil {
		log.Fatal(err)
	}
	conn, err := client.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	master := crypto.KeyFromBytes([]byte("one passphrase to rule them all"))
	cat, err := loaded.AttachAll(conn, master)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attached tables: %v\n\n", cat.Names())

	// Populate both tables through their handles.
	payroll, err := cat.DB("payroll")
	if err != nil {
		log.Fatal(err)
	}
	emp, err := workload.Employees(150, 11)
	if err != nil {
		log.Fatal(err)
	}
	if err := payroll.CreateTable(emp); err != nil {
		log.Fatal(err)
	}
	clinic, err := cat.DB("clinic")
	if err != nil {
		log.Fatal(err)
	}
	patients, err := workload.Hospital(workload.HospitalConfig{Patients: 200}, 12)
	if err != nil {
		log.Fatal(err)
	}
	if err := clinic.CreateTable(patients); err != nil {
		log.Fatal(err)
	}

	// SQL routed by FROM clause: "payroll" by remote name, "patients" by
	// schema name. The multi-predicate statement runs through the
	// server-side conjunctive planner (one read request; only the
	// intersection crosses the wire).
	for _, sql := range []string{
		"SELECT name, salary FROM payroll WHERE dept = 'HR'",
		"SELECT name FROM patients WHERE hospital = 2 AND outcome = 'fatal'",
	} {
		res, err := cat.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n%s(%d tuples)\n\n", sql, res.Sorted(), res.Len())
	}

	// The pushdown must agree with the selection run on the plaintext
	// (Definition 1.1), as client.TestConjPushdownShipsTheIntersection
	// also requires.
	conj := []relation.Eq{
		{Column: "dept", Value: relation.String("HR")},
		{Column: "salary", Value: relation.Int(pickSalary(emp))},
	}
	plain, err := relation.Select(emp, relation.And{Preds: []relation.Pred{conj[0], conj[1]}})
	if err != nil {
		log.Fatal(err)
	}
	pushed, err := payroll.SelectConj(conj)
	if err != nil {
		log.Fatal(err)
	}
	if pushed.Sorted().String() != plain.Sorted().String() {
		log.Fatalf("pushdown diverged from the plaintext scan:\n%s\nvs\n%s",
			pushed.Sorted(), plain.Sorted())
	}
	fmt.Printf("pushdown == plaintext scan for %v ∧ %v (%d tuples)\n\n",
		conj[0], conj[1], pushed.Len())

	// And the server will happily explain what it would do.
	plan, err := cat.Explain("SELECT * FROM payroll WHERE dept = 'HR' AND salary = 7500")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)
	fmt.Println()

	// The server directory shows the two tables, both swp-ph.
	infos, err := conn.List()
	if err != nil {
		log.Fatal(err)
	}
	for _, ti := range infos {
		fmt.Printf("Eve stores %-8s scheme=%-8s %d tuples\n", ti.Name, ti.SchemeID, ti.Tuples)
	}

	// --- The same catalog over a sharded serving tier. ---
	// Two more Eves; the config's shards section (its order IS the
	// partition map) turns the catalog into a scatter-gather client: an
	// in-process coordinator hash-partitions uploads across both shards
	// and merges per-shard answers, and verified reads pin one root per
	// shard (a root vector), so either shard lying about one tuple fails
	// the read.
	var shardAddrs []client.ShardConfig
	for i := 0; i < 2; i++ {
		ssrv := server.New(storage.NewMemory(), nil)
		sl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go ssrv.Serve(sl)
		defer ssrv.Close()
		shardAddrs = append(shardAddrs, client.ShardConfig{Addr: sl.Addr().String()})
	}
	loaded.Shards = &client.ShardsConfig{Version: 1, Shards: shardAddrs}
	co, err := shard.FromConfig(loaded.Shards, loaded.Net.DialConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer co.Close()
	scat, err := loaded.AttachAllSharded(co, master)
	if err != nil {
		log.Fatal(err)
	}
	spayroll, err := scat.DB("payroll")
	if err != nil {
		log.Fatal(err)
	}
	if err := spayroll.CreateTable(emp); err != nil {
		log.Fatal(err)
	}
	for i, c := range shardAddrs {
		sc, err := client.Dial(c.Addr)
		if err != nil {
			log.Fatal(err)
		}
		sinfos, err := sc.List()
		if err != nil {
			log.Fatal(err)
		}
		sc.Close()
		for _, ti := range sinfos {
			fmt.Printf("shard %d stores %-8s %d tuples\n", i, ti.Name, ti.Tuples)
		}
	}

	// The same equivalence on the sharded tier: the scattered
	// conjunctive pushdown must return the rows of the plaintext scan.
	shardPushed, err := spayroll.SelectConj(conj)
	if err != nil {
		log.Fatal(err)
	}
	if shardPushed.Sorted().String() != plain.Sorted().String() {
		log.Fatalf("sharded pushdown diverged from the plaintext scan:\npushdown:\n%s\nplaintext:\n%s",
			shardPushed.Sorted(), plain.Sorted())
	}
	fmt.Printf("\n2-shard pushdown == plaintext scan for %v ∧ %v (%d tuples)\n",
		conj[0], conj[1], shardPushed.Len())
}
