package client

import (
	"fmt"
	"sort"

	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/sqlmini"
)

// Catalog manages several outsourced tables over one connection — or
// one sharded serving tier — routing SQL statements to the right
// table's scheme by the FROM clause. Like Conn, a Catalog is not safe for
// concurrent use.
type Catalog struct {
	open   func(scheme ph.Scheme, remote string) *DB // NewDB or NewShardedDB, bound to the transport
	tables map[string]*DB
}

// NewCatalog creates an empty catalog over the connection.
func NewCatalog(conn *Conn) *Catalog {
	return newCatalog(func(scheme ph.Scheme, remote string) *DB { return NewDB(conn, scheme, remote) })
}

// NewShardedCatalog creates an empty catalog over a sharded serving
// tier: every attached table routes through the cluster's scatter-gather
// instead of a single connection.
func NewShardedCatalog(cl Cluster) *Catalog {
	return newCatalog(func(scheme ph.Scheme, remote string) *DB { return NewShardedDB(cl, scheme, remote) })
}

// newCatalog creates an empty catalog whose tables open with open.
func newCatalog(open func(scheme ph.Scheme, remote string) *DB) *Catalog {
	return &Catalog{open: open, tables: make(map[string]*DB)}
}

// Attach registers a scheme for a remote table name and returns its DB
// handle. Attaching an already attached name replaces the handle (e.g.
// after a key rotation). The handle pins nothing: an application
// reinstalls the 32-byte root it persisted (Root, ShardRoots) with
// PinRoot or PinShardRoots, and the first verified read rebuilds the cap
// row behind it from one verified fetch.
func (c *Catalog) Attach(remote string, scheme ph.Scheme) (*DB, error) {
	if remote == "" {
		return nil, fmt.Errorf("client: catalog table name must not be empty")
	}
	db := c.open(scheme, remote)
	c.tables[remote] = db
	return db, nil
}

// DB returns the handle for a remote table name.
func (c *Catalog) DB(remote string) (*DB, error) {
	db, ok := c.tables[remote]
	if !ok {
		return nil, fmt.Errorf("client: no table %q attached (have %v)", remote, c.Names())
	}
	return db, nil
}

// Names lists the attached remote table names, sorted.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Query parses the statement, resolves the FROM clause against attached
// tables (by remote name first, then by schema name), and executes it with
// that table's scheme.
func (c *Catalog) Query(sql string) (*relation.Table, error) {
	db, err := c.route(sql)
	if err != nil {
		return nil, err
	}
	return db.Query(sql)
}

// Explain routes the statement like Query but returns the server's plan
// for it instead of executing it (see DB.Explain).
func (c *Catalog) Explain(sql string) (string, error) {
	db, err := c.route(sql)
	if err != nil {
		return "", err
	}
	return db.Explain(sql)
}

// route resolves a statement's FROM clause to an attached DB, by remote
// name first, then by schema name.
func (c *Catalog) route(sql string) (*DB, error) {
	q, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	if db, ok := c.tables[q.Table]; ok {
		return db, nil
	}
	// Fall back to schema-name lookup so applications can use logical
	// relation names that differ from the remote storage name.
	var match *DB
	for _, db := range c.tables {
		if db.Scheme().Schema().Name == q.Table {
			if match != nil {
				return nil, fmt.Errorf("client: schema name %q is ambiguous across attached tables", q.Table)
			}
			match = db
		}
	}
	if match == nil {
		return nil, fmt.Errorf("client: no attached table serves %q (have %v)", q.Table, c.Names())
	}
	return match, nil
}
