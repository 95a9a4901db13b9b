// Package repro reproduces "Provable Security for Outsourcing Database
// Operations" (Evdokimov, Fischmann, Günther — ICDE 2006) as a complete Go
// system: the database-privacy-homomorphism framework (internal/ph), the
// paper's SWP-based construction preserving exact selects (internal/core),
// the searchable-encryption substrate (internal/swp), the comparator
// schemes it attacks (internal/schemes/...), the security games and
// adversaries of its definitions and theorem (internal/games,
// internal/attacks), and a full client/server outsourcing stack
// (internal/client, internal/server).
//
// The server-side hot path — testing one SWP trapdoor against every
// cipherword of every tuple — runs on a zero-allocation, multi-core search
// engine: SWP's checksum function F is crypto.BlockPRF, one AES-256 block
// per cipherword for stream widths up to 16 bytes, swp.Matcher precomputes
// per-trapdoor state (the expanded key, shared by every clone) so each
// match test costs 0 allocs/op, core.Evaluate shards table scans
// across a GOMAXPROCS worker pool (one Matcher clone per worker, hits
// merged in table order), and storage.Store locks per table so concurrent
// clients' queries never serialise on unrelated tables. See DESIGN.md
// ("Search engine & performance architecture") for the design and for how
// to read the allocs/op numbers its package benchmarks report.
//
// See DESIGN.md for the system inventory and experiment index. The
// root-level benchmarks (bench_test.go) time the schemes' primitives and
// the paper's experiments; go run ./benchmark times the served path end
// to end; cmd/experiments prints the experiments as tables.
package repro
