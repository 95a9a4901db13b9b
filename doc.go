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
// to read the allocs/op numbers experiment E13 reports.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results. The
// root-level benchmarks (bench_test.go) regenerate every evaluation
// artifact; cmd/experiments prints them as tables.
package repro
