package client

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
)

// Config is the client-side description of an outsourcing setup: which
// remote tables exist, their schemas, and how each is encrypted. It
// contains **no key material** — per-table keys are derived on demand from
// a master key the application supplies (e.g. from a passphrase), so the
// config file can live on disk unprotected.
type Config struct {
	// Tables holds one entry per outsourced table.
	Tables []TableConfig `json:"tables"`
	// Net holds the transport knobs (dial retry, I/O deadlines, read
	// replicas). The zero value keeps the library defaults.
	Net NetConfig `json:"net,omitempty"`
	// Shards, when present, describes a sharded serving tier: the catalog
	// scatters to these backends through an in-process coordinator
	// instead of talking to one server. Followers attach per shard
	// (ShardConfig.Replicas): attaching a config that sets both Shards
	// and Net.Replicas fails.
	Shards *ShardsConfig `json:"shards,omitempty"`
}

// ShardsConfig is the JSON form of a versioned partition map: which
// shard backends exist, in partition order, and which map version the
// placement hash is stamped with. The shard *order is the partition
// map* — reordering entries reshards the data — so edits must bump
// Version and re-upload.
type ShardsConfig struct {
	// Version stamps the partition map; servers echo it so a client
	// with a stale config fails loudly instead of merging mis-routed
	// answers.
	Version uint64 `json:"version"`
	// Shards lists the backends in partition order.
	Shards []ShardConfig `json:"shards"`
}

// ShardConfig describes one shard backend.
type ShardConfig struct {
	// Addr is the shard primary's address.
	Addr string `json:"addr"`
	// Replicas lists read-replica addresses for this shard.
	Replicas []string `json:"replicas,omitempty"`
}

// NetConfig is the JSON form of the client's transport knobs. All
// durations are milliseconds; zero means "library default" everywhere
// (see DialConfig).
type NetConfig struct {
	// DialTimeoutMS bounds one dial attempt.
	DialTimeoutMS int `json:"dial_timeout_ms,omitempty"`
	// DialAttempts is the total number of dial attempts before giving up.
	DialAttempts int `json:"dial_attempts,omitempty"`
	// DialBackoffMinMS/DialBackoffMaxMS bound the jittered doubling wait
	// between attempts.
	DialBackoffMinMS int `json:"dial_backoff_min_ms,omitempty"`
	DialBackoffMaxMS int `json:"dial_backoff_max_ms,omitempty"`
	// IOTimeoutMS bounds every round trip on established connections.
	IOTimeoutMS int `json:"io_timeout_ms,omitempty"`
	// Replicas lists read-replica addresses; AttachAll attaches them to
	// every table's DB to spread verified reads with primary failover.
	Replicas []string `json:"replicas,omitempty"`
}

// DialConfig converts the JSON knobs into a DialConfig.
func (nc NetConfig) DialConfig() DialConfig {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	return DialConfig{
		Timeout:    ms(nc.DialTimeoutMS),
		Attempts:   nc.DialAttempts,
		BackoffMin: ms(nc.DialBackoffMinMS),
		BackoffMax: ms(nc.DialBackoffMaxMS),
		IOTimeout:  ms(nc.IOTimeoutMS),
	}
}

// TableConfig describes one outsourced table.
type TableConfig struct {
	// Remote is the table name at the server.
	Remote string `json:"remote"`
	// Scheme is the scheme ID. It must be swp-ph, the paper's
	// construction: the only scheme a server stores.
	Scheme string `json:"scheme"`
	// Schema describes the plaintext relation.
	Schema SchemaConfig `json:"schema"`
	// ChecksumLen is the SWP checksum width (0 = default).
	ChecksumLen int `json:"checksum_len,omitempty"`
	// PerColumnWidth enables the variable-length layout.
	PerColumnWidth bool `json:"per_column_width,omitempty"`
}

// SchemaConfig is the JSON form of a relation schema.
type SchemaConfig struct {
	// Name is the relation name.
	Name string `json:"name"`
	// Columns lists the attributes in order.
	Columns []ColumnConfig `json:"columns"`
}

// ColumnConfig is the JSON form of one column.
type ColumnConfig struct {
	// Name is the attribute name.
	Name string `json:"name"`
	// Type is "string" or "int".
	Type string `json:"type"`
	// Width is the maximum encoded width.
	Width int `json:"width"`
}

// SchemaConfigOf converts a schema into its JSON form.
func SchemaConfigOf(s *relation.Schema) SchemaConfig {
	sc := SchemaConfig{Name: s.Name}
	for _, c := range s.Columns {
		sc.Columns = append(sc.Columns, ColumnConfig{Name: c.Name, Type: c.Type.String(), Width: c.Width})
	}
	return sc
}

// Build validates the JSON form back into a schema.
func (sc SchemaConfig) Build() (*relation.Schema, error) {
	cols := make([]relation.Column, len(sc.Columns))
	for i, cc := range sc.Columns {
		var typ relation.Type
		switch cc.Type {
		case "string":
			typ = relation.TypeString
		case "int":
			typ = relation.TypeInt
		default:
			return nil, fmt.Errorf("client: column %q has unknown type %q", cc.Name, cc.Type)
		}
		cols[i] = relation.Column{Name: cc.Name, Type: typ, Width: cc.Width}
	}
	return relation.NewSchema(sc.Name, cols...)
}

// BuildScheme instantiates the table's privacy homomorphism, refusing any
// Scheme but swp-ph. The table key is derived from the master key and the
// remote table name, so one passphrase serves a whole catalog without key
// reuse across tables.
func (tc TableConfig) BuildScheme(master crypto.Key) (ph.Scheme, error) {
	if tc.Scheme != core.SchemeID {
		return nil, fmt.Errorf("client: table %q has scheme %q: a server stores only %s, the construction Definition 2.1 is proved for",
			tc.Remote, tc.Scheme, core.SchemeID)
	}
	schema, err := tc.Schema.Build()
	if err != nil {
		return nil, err
	}
	key := crypto.NewPRF(master).DeriveKey("client/table-key", []byte(tc.Remote))
	return core.New(key, schema, core.Options{
		ChecksumLen:    tc.ChecksumLen,
		PerColumnWidth: tc.PerColumnWidth,
	})
}

// AttachAll builds every table in the config and attaches it to a catalog
// over the connection.
func (c *Config) AttachAll(conn *Conn, master crypto.Key) (*Catalog, error) {
	return c.attachAll(NewCatalog(conn), master)
}

// AttachAllSharded builds every table in the config and attaches it to a
// catalog over a sharded serving tier (built from the config's Shards
// section, e.g. with shard.FromConfig).
func (c *Config) AttachAllSharded(cl Cluster, master crypto.Key) (*Catalog, error) {
	return c.attachAll(NewShardedCatalog(cl), master)
}

// attachAll builds every table in the config, attaches it to cat and
// gives its DB the config's read replicas.
func (c *Config) attachAll(cat *Catalog, master crypto.Key) (*Catalog, error) {
	for _, tc := range c.Tables {
		scheme, err := tc.BuildScheme(master)
		if err != nil {
			return nil, fmt.Errorf("client: table %q: %w", tc.Remote, err)
		}
		db, err := cat.Attach(tc.Remote, scheme)
		if err != nil {
			return nil, err
		}
		if len(c.Net.Replicas) > 0 {
			if err := db.AddReplicas(c.Net.DialConfig(), c.Net.Replicas...); err != nil {
				return nil, fmt.Errorf("client: table %q: net.replicas: %w", tc.Remote, err)
			}
		}
	}
	return cat, nil
}

// SaveConfig writes the config as JSON to path (0600: it names tables and
// schemas, which are metadata Alex may prefer to keep private, though no
// keys are inside).
func SaveConfig(path string, c *Config) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("client: encoding config: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o600); err != nil {
		return fmt.Errorf("client: writing config: %w", err)
	}
	return nil
}

// LoadConfig reads a JSON config from path and validates every schema.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("client: reading config: %w", err)
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("client: parsing config %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, tc := range c.Tables {
		if tc.Remote == "" {
			return nil, fmt.Errorf("client: config %s: table with empty remote name", path)
		}
		if seen[tc.Remote] {
			return nil, fmt.Errorf("client: config %s: duplicate table %q", path, tc.Remote)
		}
		seen[tc.Remote] = true
		if _, err := tc.Schema.Build(); err != nil {
			return nil, fmt.Errorf("client: config %s: table %q: %w", path, tc.Remote, err)
		}
	}
	if sc := c.Shards; sc != nil {
		if len(sc.Shards) == 0 {
			return nil, fmt.Errorf("client: config %s: shards section with no shards", path)
		}
		for i, s := range sc.Shards {
			if s.Addr == "" {
				return nil, fmt.Errorf("client: config %s: shard %d has no address", path, i)
			}
		}
	}
	return &c, nil
}
