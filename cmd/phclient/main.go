// Command phclient runs Alex: an interactive SQL shell whose storage lives
// on an untrusted phserver. All encryption happens client-side; the server
// sees only ciphertext, trapdoors and result positions.
//
// Single-table mode:
//
//	phclient -addr localhost:7632 -table emp -passphrase 'my secret' \
//	         [-schema 'name:string:10,dept:string:5,salary:int:5']
//
// Tables are encrypted with swp-ph, the one scheme a phserver stores.
//
// Catalog mode (several tables and schemas from a JSON config; per-table
// keys are derived from the passphrase, no keys in the file):
//
//	phclient -addr localhost:7632 -config client.json -passphrase 'my secret'
//
// The config's "net" section sets the dial and I/O knobs for -addr, and
// its "replicas" list attaches read replicas to every table.
//
// If the config carries a "shards" section the shell runs against the
// sharded serving tier instead: it builds an in-process scatter-gather
// coordinator over the listed shard backends (the list order is the
// partition map), -addr is ignored, and every verified read checks each
// shard's sub-answer against a pinned per-shard root vector.
//
// With -explain the shell prints the chosen query plan (conjunct order,
// estimated selectivities, cache state) for each SQL statement instead
// of executing it; a one-off `\explain SELECT ...` does the same for a
// single statement.
//
// Shell commands:
//
//	SELECT ... FROM <table> [WHERE a = v [AND b = w]];   exact selects
//	\explain SELECT ...   print the server's plan without executing
//	\use T         switch the current table (catalog mode)
//	\seed N        generate and upload N demo employee tuples
//	\load f.csv    encrypt and upload a typed CSV file (header: name:type[:width],...)
//	\export f.csv  download, decrypt and write the table as typed CSV
//	\insert v1,v2,...   insert one tuple (values in schema order)
//	\all           download and decrypt the whole table
//	\list          list tables stored at the server
//	\drop          drop the current remote table
//	\quit          exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/shard"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:7632", "server address")
		table      = flag.String("table", "emp", "remote table name (single-table mode)")
		passphrase = flag.String("passphrase", "", "secret the keys are derived from (required)")
		schemaDDL  = flag.String("schema", "", "schema as col:type:width,... (default: the demo employee schema)")
		configPath = flag.String("config", "", "catalog config JSON (enables multi-table mode)")
		explain    = flag.Bool("explain", false, "print the server's query plan for SQL statements instead of executing them")
	)
	flag.Parse()
	if *passphrase == "" {
		fmt.Fprintln(os.Stderr, "phclient: -passphrase is required (keys never leave this process)")
		os.Exit(2)
	}
	master := crypto.KeyFromBytes([]byte(*passphrase))

	var cfg *client.Config
	if *configPath != "" {
		var err error
		cfg, err = client.LoadConfig(*configPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phclient: %v\n", err)
			os.Exit(2)
		}
	}

	sh := &shell{explain: *explain}
	if cfg != nil && cfg.Shards != nil {
		// Sharded catalog mode: the config's shards section IS the
		// partition map; the shell scatters through an in-process
		// coordinator and -addr is ignored.
		co, err := shard.FromConfig(cfg.Shards, cfg.Net.DialConfig())
		if err != nil {
			fmt.Fprintf(os.Stderr, "phclient: %v\n", err)
			os.Exit(1)
		}
		defer co.Close()
		cat, err := cfg.AttachAllSharded(co, master)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phclient: %v\n", err)
			os.Exit(2)
		}
		sh.cluster = co
		sh.catalog = cat
		names := cat.Names()
		if len(names) > 0 {
			sh.current, _ = cat.DB(names[0])
			sh.currentName = names[0]
		}
		fmt.Printf("connected to %d shards (partition map v%d); catalog tables: %s\n",
			co.NumShards(), co.MapVersion(), strings.Join(names, ", "))
		repl(sh)
		return
	}

	var conn *client.Conn
	var err error
	if cfg != nil {
		conn, err = client.DialWithConfig(*addr, cfg.Net.DialConfig())
	} else {
		conn, err = client.Dial(*addr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "phclient: %v\n", err)
		os.Exit(1)
	}
	defer conn.Close()
	sh.conn = conn

	if cfg != nil {
		cat, err := cfg.AttachAll(conn, master)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phclient: %v\n", err)
			os.Exit(2)
		}
		sh.catalog = cat
		names := cat.Names()
		if len(names) > 0 {
			sh.current, _ = cat.DB(names[0])
			sh.currentName = names[0]
		}
		fmt.Printf("connected to %s; catalog tables: %s\n", *addr, strings.Join(names, ", "))
	} else {
		schema := workload.EmployeeSchema()
		if *schemaDDL != "" {
			schema, err = parseSchema(*table, *schemaDDL)
			if err != nil {
				fmt.Fprintf(os.Stderr, "phclient: %v\n", err)
				os.Exit(2)
			}
		}
		scheme, err := core.New(master, schema, core.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "phclient: %v\n", err)
			os.Exit(2)
		}
		cat := client.NewCatalog(conn)
		db, err := cat.Attach(*table, scheme)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phclient: %v\n", err)
			os.Exit(2)
		}
		sh.catalog = cat
		sh.current = db
		sh.currentName = *table
		fmt.Printf("connected to %s; table %q, scheme %s, schema %s\n", *addr, *table, scheme.Name(), schema)
	}
	repl(sh)
}

// repl runs the interactive loop until EOF or \quit.
func repl(sh *shell) {
	fmt.Println(`type SQL, or \use T, \seed N, \load f.csv, \export f.csv, \insert v1,v2,..., \all, \list, \drop, \quit`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("alex[%s]> ", sh.currentName)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := sh.execute(line); err != nil {
			if err == errQuit {
				return
			}
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

// shell holds the REPL state: the connection (or the sharded
// coordinator when the config carries a shards section), the catalog,
// the table backslash commands act on, and whether SQL statements are
// explained instead of executed.
type shell struct {
	conn        *client.Conn
	cluster     *shard.Coordinator
	catalog     *client.Catalog
	current     *client.DB
	currentName string
	explain     bool
}

// execute runs one shell line.
func (sh *shell) execute(line string) error {
	db := sh.current
	switch {
	case line == `\quit` || line == `\q`:
		return errQuit
	case strings.HasPrefix(line, `\use `):
		name := strings.TrimSpace(strings.TrimPrefix(line, `\use `))
		next, err := sh.catalog.DB(name)
		if err != nil {
			return err
		}
		sh.current = next
		sh.currentName = name
		return nil
	case line == `\list`:
		var infos []wire.TableInfo
		var err error
		if sh.cluster != nil {
			infos, err = sh.cluster.List()
		} else {
			infos, err = sh.conn.List()
		}
		if err != nil {
			return err
		}
		for _, ti := range infos {
			fmt.Printf("  %-20s %-10s %d tuples\n", ti.Name, ti.SchemeID, ti.Tuples)
		}
		return nil
	case line == `\drop`:
		if db == nil {
			return fmt.Errorf("no current table; use \\use")
		}
		return db.Drop()
	case line == `\all`:
		if db == nil {
			return fmt.Errorf("no current table; use \\use")
		}
		t, err := db.SelectAll()
		if err != nil {
			return err
		}
		fmt.Print(t.Sorted())
		return nil
	case strings.HasPrefix(line, `\seed `):
		if db == nil {
			return fmt.Errorf("no current table; use \\use")
		}
		n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, `\seed `)))
		if err != nil {
			return fmt.Errorf("\\seed needs a count: %w", err)
		}
		if !db.Scheme().Schema().Equal(workload.EmployeeSchema()) {
			return fmt.Errorf("\\seed only works with the demo employee schema")
		}
		t, err := workload.Employees(n, 42)
		if err != nil {
			return err
		}
		if err := db.CreateTable(t); err != nil {
			return err
		}
		fmt.Printf("uploaded %d encrypted tuples\n", n)
		return nil
	case strings.HasPrefix(line, `\load `):
		if db == nil {
			return fmt.Errorf("no current table; use \\use")
		}
		path := strings.TrimSpace(strings.TrimPrefix(line, `\load `))
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		t, err := relation.ReadCSV(f, db.Scheme().Schema().Name)
		if err != nil {
			return err
		}
		if !t.Schema().Equal(db.Scheme().Schema()) {
			return fmt.Errorf("csv schema %s does not match client schema %s (pass -schema to change it)",
				t.Schema(), db.Scheme().Schema())
		}
		if err := db.CreateTable(t); err != nil {
			return err
		}
		fmt.Printf("uploaded %d encrypted tuples from %s\n", t.Len(), path)
		return nil
	case strings.HasPrefix(line, `\export `):
		if db == nil {
			return fmt.Errorf("no current table; use \\use")
		}
		path := strings.TrimSpace(strings.TrimPrefix(line, `\export `))
		t, err := db.SelectAll()
		if err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := relation.WriteCSV(f, t.Sorted()); err != nil {
			return err
		}
		fmt.Printf("wrote %d tuples to %s\n", t.Len(), path)
		return nil
	case strings.HasPrefix(line, `\insert `):
		if db == nil {
			return fmt.Errorf("no current table; use \\use")
		}
		tp, err := parseTuple(db.Scheme().Schema(), strings.TrimPrefix(line, `\insert `))
		if err != nil {
			return err
		}
		return db.Insert(tp)
	case strings.HasPrefix(line, `\explain `):
		sql := strings.TrimSpace(strings.TrimPrefix(line, `\explain `))
		plan, err := sh.catalog.Explain(sql)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	case strings.HasPrefix(line, `\`):
		return fmt.Errorf("unknown command %q", line)
	default:
		if sh.explain {
			plan, err := sh.catalog.Explain(line)
			if err != nil {
				return err
			}
			fmt.Print(plan)
			return nil
		}
		t, err := sh.catalog.Query(line)
		if err != nil {
			return err
		}
		fmt.Print(t.Sorted())
		fmt.Printf("(%d tuples)\n", t.Len())
		return nil
	}
}

// parseSchema parses "col:type:width,..." DDL.
func parseSchema(name, ddl string) (*relation.Schema, error) {
	var cols []relation.Column
	for _, part := range strings.Split(ddl, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("schema element %q is not col:type:width", part)
		}
		var typ relation.Type
		switch fields[1] {
		case "string":
			typ = relation.TypeString
		case "int":
			typ = relation.TypeInt
		default:
			return nil, fmt.Errorf("unknown type %q (string|int)", fields[1])
		}
		w, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("width %q: %w", fields[2], err)
		}
		cols = append(cols, relation.Column{Name: fields[0], Type: typ, Width: w})
	}
	return relation.NewSchema(name, cols...)
}

// parseTuple parses comma-separated values in schema order.
func parseTuple(s *relation.Schema, in string) (relation.Tuple, error) {
	parts := strings.Split(in, ",")
	if len(parts) != s.NumColumns() {
		return nil, fmt.Errorf("tuple has %d values, schema needs %d", len(parts), s.NumColumns())
	}
	tp := make(relation.Tuple, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		switch s.Columns[i].Type {
		case relation.TypeInt:
			v, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", s.Columns[i].Name, err)
			}
			tp[i] = relation.Int(v)
		default:
			tp[i] = relation.String(strings.Trim(p, "'"))
		}
	}
	return tp, nil
}
