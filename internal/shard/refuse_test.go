package shard

import (
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/schemes/bucket"
	"repro/internal/schemes/damiani"
	"repro/internal/schemes/detph"
	"repro/internal/schemes/gohph"
	"repro/internal/storage"
)

// TestServerRefusesComparatorSchemes: a table of each of the paper's
// comparators, stored over the wire, is refused with an error naming
// the table, its scheme and Definition 2.1 — by a single server, and by
// a 2-shard coordinator, after which no shard holds the table.
func TestServerRefusesComparatorSchemes(t *testing.T) {
	key, err := crypto.RandomKey()
	if err != nil {
		t.Fatal(err)
	}
	schema := shardSchema()
	comparators := []struct {
		name string
		new  func() (ph.Scheme, error)
	}{
		{bucket.SchemeID, func() (ph.Scheme, error) { return bucket.New(key, schema, bucket.Options{}) }},
		{damiani.SchemeID, func() (ph.Scheme, error) { return damiani.New(key, schema, damiani.Options{}) }},
		{detph.SchemeID, func() (ph.Scheme, error) { return detph.New(key, schema) }},
		{gohph.SchemeID, func() (ph.Scheme, error) { return gohph.New(key, schema, gohph.Options{}) }},
	}
	for _, c := range comparators {
		t.Run(c.name, func(t *testing.T) {
			scheme, err := c.new()
			if err != nil {
				t.Fatal(err)
			}
			et, err := scheme.EncryptTable(shardTable())
			if err != nil {
				t.Fatal(err)
			}
			refused := func(where string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s stored a %s table", where, c.name)
				}
				for _, want := range []string{`"emp"`, `"` + c.name + `"`, "Definition 2.1"} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("%s refusal %q does not name %s", where, err, want)
					}
				}
			}

			single := storage.NewMemory()
			refused("a server", startShardConn(t, single).Store("emp", et))
			if infos := single.List(); len(infos) != 0 {
				t.Fatalf("the server holds %+v after refusing", infos)
			}

			co, stores := newCluster(t, 2)
			refused("a coordinator", startProxy(t, co).Store("emp", et))
			for i, s := range stores {
				if infos := s.List(); len(infos) != 0 {
					t.Fatalf("shard %d holds %+v after the coordinator refused", i, infos)
				}
			}
		})
	}
}
