// Package ph defines the paper's central abstraction — Definition 1.1, the
// database privacy homomorphism (K, E, Eq, D) — as a Go interface, together
// with the ciphertext container types every scheme in this repository
// produces and the key-free server-side evaluator registry.
//
// A database PH consists of
//
//	E  : K × R → C        table encryption        (Scheme.EncryptTable)
//	Eq : K × {σ} → {ψ}    query encryption        (Scheme.EncryptQuery)
//	D  : K × C → R        decryption              (Scheme.DecryptTable / DecryptResult)
//
// with the homomorphic property E_k(σ_i(R)) = ψ_i(E_k(R)): the encrypted
// query ψ can be evaluated by the untrusted server on the encrypted table
// alone, yielding the encryption of the plaintext result (up to false
// positives, which D filters — §3 of the paper).
//
// The server side ψ is exposed as an Evaluator: a function that needs no
// secret keys, only the encrypted table's public metadata and the encrypted
// query token. Schemes register their evaluator under their scheme ID
// (database/sql-driver style), so Apply runs ψ for any scheme linked in:
// the experiments, games and attacks run the comparators that way. The
// served store scans the paper's construction alone (core.EvaluateSlab).
package ph

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/relation"
)

// EncryptedTuple is the server-visible encryption of one tuple. Which fields
// are populated depends on the scheme:
//
//   - internal/core (the paper's construction): Words holds the SWP
//     cipherwords, one per attribute; Blob is empty.
//   - bucketization / hash-index / deterministic baselines: Blob holds the
//     strongly encrypted tuple, Words holds the weak index labels.
//
// Everything in this struct is, by definition, known to the adversary: it is
// exactly what Alex uploads to Eve.
type EncryptedTuple struct {
	// ID identifies the tuple ciphertext (random, carries no plaintext
	// information). It doubles as the SWP document identifier.
	ID []byte
	// Blob is an opaque strong ciphertext of the whole tuple, if the
	// scheme uses one.
	Blob []byte
	// Words holds the searchable cipherwords or weak index labels.
	Words [][]byte
}

// EncryptedTable is E_k(R): the complete server-side representation of an
// encrypted relation.
type EncryptedTable struct {
	// SchemeID names the scheme whose evaluator applies (e.g. "swp-ph").
	SchemeID string
	// Meta carries the public scheme parameters the evaluator needs
	// (e.g. SWP word geometry). It must not depend on the plaintext.
	Meta []byte
	// Tuples are the encrypted tuples, in an order independent of the
	// plaintext insertion order (schemes shuffle on encryption).
	Tuples []EncryptedTuple
}

// Clone returns a deep copy of the encrypted table, its tuples views of
// a fresh slab.
func (t *EncryptedTable) Clone() *EncryptedTable {
	s := NewSlab(t)
	return &EncryptedTable{SchemeID: t.SchemeID, Meta: s.Meta, Tuples: s.tuples()}
}

// EncryptedQuery is ψ = Eq_k(σ): the encrypted form of an exact select that
// the server can evaluate without keys.
type EncryptedQuery struct {
	// SchemeID names the scheme that produced the token.
	SchemeID string
	// Token is the scheme-specific search token (SWP trapdoor, bucket
	// label, ...).
	Token []byte
}

// Result is the server's answer to an encrypted query: the sub-multiset of
// encrypted tuples that matched. Positions (indices into the encrypted
// table) are included because, by the structure of any database PH, the
// adversary observes which ciphertext tuples each query returns — this
// observable is precisely what the paper's §2 attacks exploit.
type Result struct {
	// Positions are indices into EncryptedTable.Tuples, ascending.
	Positions []int
	// Tuples are the matching encrypted tuples, aligned with Positions.
	Tuples []EncryptedTuple
}

// Scheme is the client-side (key-holding) half of a database PH over a fixed
// relation schema.
type Scheme interface {
	// Name returns the scheme ID used for evaluator dispatch.
	Name() string
	// Schema returns the plaintext relation schema the instance encrypts.
	Schema() *relation.Schema
	// EncryptTable is E: it encrypts a relation tuple-by-tuple.
	EncryptTable(t *relation.Table) (*EncryptedTable, error)
	// EncryptQuery is Eq: it encrypts an exact select.
	EncryptQuery(q relation.Eq) (*EncryptedQuery, error)
	// DecryptTable is D on whole tables.
	DecryptTable(ct *EncryptedTable) (*relation.Table, error)
	// DecryptResult decrypts a server result for the (plaintext) query q
	// and filters false positives by re-evaluating q, as §3 prescribes.
	DecryptResult(q relation.Eq, r *Result) (*relation.Table, error)
}

// Evaluator is ψ's implementation: the key-free server-side computation that
// maps an encrypted table and an encrypted query to the matching tuples.
type Evaluator func(et *EncryptedTable, q *EncryptedQuery) (*Result, error)

var (
	evalMu     sync.RWMutex
	evaluators = make(map[string]Evaluator)
)

// RegisterEvaluator installs the evaluator for a scheme ID. It is intended
// to be called from scheme package init functions and panics on duplicate
// registration, mirroring database/sql.Register.
func RegisterEvaluator(id string, ev Evaluator) {
	evalMu.Lock()
	defer evalMu.Unlock()
	if ev == nil {
		panic("ph: RegisterEvaluator with nil evaluator")
	}
	if _, dup := evaluators[id]; dup {
		panic("ph: RegisterEvaluator called twice for scheme " + id)
	}
	evaluators[id] = ev
}

// Evaluators returns the sorted IDs of all registered schemes.
func Evaluators() []string {
	evalMu.RLock()
	defer evalMu.RUnlock()
	ids := make([]string, 0, len(evaluators))
	for id := range evaluators {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// IntersectPositions returns the intersection of two ascending position
// lists, ascending. It is the planner's merge primitive.
func IntersectPositions(a, b []int) []int {
	out := make([]int, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Apply evaluates ψ, keylessly: it dispatches to the registered evaluator
// for the table's scheme.
func Apply(et *EncryptedTable, q *EncryptedQuery) (*Result, error) {
	if et.SchemeID != q.SchemeID {
		return nil, fmt.Errorf("ph: query for scheme %q applied to table of scheme %q", q.SchemeID, et.SchemeID)
	}
	evalMu.RLock()
	ev, ok := evaluators[et.SchemeID]
	evalMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ph: no evaluator registered for scheme %q (forgotten import?)", et.SchemeID)
	}
	return ev(et, q)
}

// SelectPositions is a helper for evaluators: it builds a Result from the
// encrypted table and the sorted list of matching positions, its tuples
// a copy in a fresh slab.
func SelectPositions(et *EncryptedTable, positions []int) *Result {
	picked := &EncryptedTable{Tuples: make([]EncryptedTuple, len(positions))}
	for i, p := range positions {
		picked.Tuples[i] = et.Tuples[p]
	}
	return &Result{Positions: positions, Tuples: NewSlab(picked).tuples()}
}
