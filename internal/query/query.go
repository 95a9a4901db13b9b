// Package query implements the server-side conjunctive query planner
// and executor (layer 9 of DESIGN.md). The paper's construction only
// preserves single-attribute exact selects, so a conjunction
// `a = x AND b = y` used to ship every conjunct's full match set to the
// client, which intersected after decryption — bandwidth and client CPU
// proportional to the *least* selective predicate. Position sets,
// however, are scheme-opaque server-side metadata: intersecting them on
// the server leaks nothing beyond the per-conjunct access pattern every
// batched query already reveals. This package therefore plans and runs
// the intersection where the data lives:
//
//   - a Plan orders the conjuncts by estimated selectivity — cached
//     position sets first (they cost nothing), then ascending estimate,
//     with estimates fed by the per-table stats.QuerySketch and by the
//     layer-6 result cache;
//   - execution evaluates the cheapest conjunct first (one full scan at
//     most, and none when a conjunct is cached) and *narrows*: every
//     later conjunct is tested only at the surviving positions through
//     the caller's scan, so a k-conjunct query costs O(n + Σ|survivors|)
//     match tests instead of k·O(n) scans plus k result transfers;
//   - a plan reports, per conjunct, where its positions come from and
//     how many tests it runs, which is what a read request with
//     wire.ReadFlagExplain returns and what phclient's -explain renders.
//
// A single select is the one-conjunct plan: its only step is the driver,
// which is exactly the cache hit / tail delta / full-scan miss decision
// — so every read the server answers, batched or not, verified or not,
// is a Plan. This package also owns the codec of the one read request
// and its answer (codec.go).
//
// The storage layer owns the locks, the cache, the sketch and the scan
// (core.EvaluateSlab); it gathers the per-conjunct cache state into
// Conjunct values, calls Build, runs the plan under its read-locked
// snapshot, and feeds the fresh full-table position sets back into
// cache and sketch.
package query

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/ph"
)

// Source records how a conjunct was (or would be) served.
type Source int

const (
	// SourceScan: full table scan.
	SourceScan Source = iota
	// SourceHit: answered entirely from the result cache.
	SourceHit
	// SourceDelta: cached prefix positions plus a scan of the appended
	// tail (as driver) or of the surviving tail candidates.
	SourceDelta
	// SourceNarrow: evaluated only at the surviving candidate positions.
	SourceNarrow
	// SourceSkipped: never evaluated — the survivor set was already
	// empty when this conjunct's turn came.
	SourceSkipped
)

// String names the source for explain output.
func (s Source) String() string {
	switch s {
	case SourceScan:
		return "full-scan"
	case SourceHit:
		return "cache-hit"
	case SourceDelta:
		return "cache-delta"
	case SourceNarrow:
		return "narrow"
	case SourceSkipped:
		return "skipped"
	}
	return fmt.Sprintf("source(%d)", int(s))
}

// Conjunct is one predicate of the conjunction, annotated with the cache
// and sketch state the planner decides on. The storage layer fills the
// input fields; Run fills the execution fields.
type Conjunct struct {
	// Index is the conjunct's position in the client's request.
	Index int
	// Q is the encrypted query token.
	Q *ph.EncryptedQuery
	// Key names the conjunct's answer in the result cache, the scan
	// single-flight and the selectivity sketch.
	Key cache.Key

	// Cached classifies the result-cache entry found at plan time.
	Cached cache.Outcome
	// Entry holds the cached hit positions: the whole table's for a Hit,
	// the first Scanned tuples' for a Delta.
	cache.Entry
	// Est is the estimated selectivity in [0, 1] used for ordering.
	Est float64
	// EstKnown reports whether Est comes from observations of this very
	// token (cache entry or sketch) rather than from a prior.
	EstKnown bool

	// Source records how the conjunct was served (filled by Run, or by
	// Annotate with the predicted source in explain mode).
	Source Source
	// Tested counts the positions the evaluator actually tested.
	Tested int
	// Hits is the survivor count after applying this conjunct.
	Hits int
	// NarrowHits counts the hits among the Tested positions. It differs
	// from Hits on delta narrows, where Hits also includes
	// cached-prefix survivors that were never tested; this is the
	// numerator of the conditional-selectivity observation the storage
	// layer feeds back to the sketch.
	NarrowHits int
	// FullPositions, when non-nil, is a freshly computed full-table
	// position set for this conjunct — exactly what the storage layer
	// writes back to the result cache and the selectivity sketch.
	FullPositions []int
}

// Plan is an ordered conjunctive execution plan over one table snapshot.
type Plan struct {
	// Table is the table name (for rendering only).
	Table string
	// Tuples is the snapshot's tuple count.
	Tuples int
	// Conjuncts are the predicates in execution order.
	Conjuncts []Conjunct
	// one holds a one-conjunct plan's conjunct, so that plan is one
	// allocation.
	one [1]Conjunct
}

// scanCost approximates the positions this conjunct must test to
// produce its full position set: the whole table for an uncached
// conjunct, only the appended tail for a cached prefix, nothing for a
// full cache entry.
func (c *Conjunct) scanCost(tuples int) int {
	switch c.Cached {
	case cache.Hit:
		return 0
	case cache.Delta:
		return tuples - c.Scanned
	default:
		return tuples
	}
}

// Build orders the conjuncts into a plan, taking ownership of conjs:
// fully cached conjuncts first (their positions are free — intersecting
// them costs no cryptography), smallest cached set leading; the rest
// ascend by estimated cost scanCost + Est·tuples — the positions a
// conjunct would test as driver plus the survivors it would hand to the
// next step. For equally cached conjuncts this reduces to ordering by
// selectivity; a cached prefix needing only a small tail scan beats a
// marginally more selective uncached conjunct that would full-scan. The
// sort is stable and in place, so ties keep request order and plans are
// deterministic. A one-conjunct plan — a single select — has nothing to
// order: it is InitSingle's.
func Build(table string, tuples int, conjs []Conjunct) (*Plan, error) {
	p := new(Plan)
	if err := p.Build(table, tuples, conjs); err != nil {
		return nil, err
	}
	return p, nil
}

// Build is the function Build into p's own memory.
func (p *Plan) Build(table string, tuples int, conjs []Conjunct) error {
	switch len(conjs) {
	case 0:
		return fmt.Errorf("query: empty conjunction")
	case 1:
		*p.InitSingle(table, tuples) = conjs[0]
		return nil
	}
	cost := func(c *Conjunct) float64 {
		return float64(c.scanCost(tuples)) + c.Est*float64(tuples)
	}
	less := func(a, b *Conjunct) bool {
		if (a.Cached == cache.Hit) != (b.Cached == cache.Hit) {
			return a.Cached == cache.Hit
		}
		if a.Cached == cache.Hit { // both cached: smallest set first
			return len(a.Positions) < len(b.Positions)
		}
		return cost(a) < cost(b)
	}
	slices.SortStableFunc(conjs, func(a, b Conjunct) int {
		switch {
		case less(&a, &b):
			return -1
		case less(&b, &a):
			return 1
		}
		return 0
	})
	*p = Plan{Table: table, Tuples: tuples, Conjuncts: conjs}
	return nil
}

// InitSingle makes p the plan of one select over a snapshot of tuples
// tuples, in p's own memory, and returns its conjunct for the caller to
// fill: a plan that lives in a larger allocation of the caller's costs
// none of its own.
func (p *Plan) InitSingle(table string, tuples int) *Conjunct {
	*p = Plan{Table: table, Tuples: tuples}
	p.Conjuncts = p.one[:]
	return &p.one[0]
}

// Run executes the plan against the snapshot it was built for, of
// tuples tuples. The returned positions are the conjunction's
// intersection, ascending, and may alias a conjunct's Positions or
// FullPositions: the caller must not write to them. The caller holds
// whatever lock keeps the snapshot stable; Run itself takes none.
//
// scan runs every evaluation of the plan: it returns the ascending
// positions among candidates whose tuples match q, or with nil
// candidates among every position from from on — 0 for the whole table,
// a cached prefix's length for the appended tail alone. A whole-table
// scan (from 0, nil candidates) is only ever the first conjunct's.
func (p *Plan) Run(tuples int, scan func(q *ph.EncryptedQuery, from int, candidates []int) ([]int, error)) ([]int, error) {
	if tuples != p.Tuples {
		return nil, fmt.Errorf("query: plan built for %d tuples run against %d", p.Tuples, tuples)
	}
	n := p.Tuples
	var surv []int
	for step := range p.Conjuncts {
		cj := &p.Conjuncts[step]
		if step > 0 && len(surv) == 0 {
			cj.Source = SourceSkipped
			continue
		}
		switch {
		case cj.Cached == cache.Hit:
			cj.Source = SourceHit
			if step == 0 {
				surv = cj.Positions
			} else {
				surv = ph.IntersectPositions(surv, cj.Positions)
			}
		case step == 0:
			// Driver: this conjunct must produce a full-table position
			// set. A cached prefix means only the appended tail needs
			// scanning — the scan is tuple-local, so the tail's hits
			// complete the cached positions exactly; the completed set is
			// cacheable either way.
			from := 0
			if cj.Cached == cache.Delta {
				from = cj.Scanned
			}
			hits, err := scan(cj.Q, from, nil)
			if err != nil {
				return nil, err
			}
			full := hits
			if cj.Cached == cache.Delta {
				full = append(cj.Positions, hits...)
				cj.Source = SourceDelta
			} else {
				cj.Source = SourceScan
			}
			cj.Tested = n - from
			cj.FullPositions = full
			surv = full
		default:
			// Narrow: test this conjunct only at the survivors. A cached
			// prefix splits the work — survivors inside the prefix
			// intersect the cached positions for free, only survivors in
			// the appended tail are actually tested.
			if cj.Cached == cache.Delta {
				cut := sort.SearchInts(surv, cj.Scanned)
				pre := ph.IntersectPositions(surv[:cut], cj.Positions)
				tail, err := scan(cj.Q, 0, surv[cut:])
				if err != nil {
					return nil, err
				}
				cj.Source = SourceDelta
				cj.Tested = len(surv) - cut
				cj.NarrowHits = len(tail)
				surv = append(pre, tail...)
			} else {
				narrowed, err := scan(cj.Q, 0, surv)
				if err != nil {
					return nil, err
				}
				cj.Source = SourceNarrow
				cj.Tested = len(surv)
				cj.NarrowHits = len(narrowed)
				surv = narrowed
			}
		}
		cj.Hits = len(surv)
	}
	if surv == nil {
		surv = []int{}
	}
	return surv, nil
}

// Annotate fills each conjunct's Source with the *predicted* serving
// path without evaluating anything — the explain-mode counterpart of
// Run. Tested and Hits stay zero: estimates, not measurements.
func (p *Plan) Annotate() {
	for step := range p.Conjuncts {
		cj := &p.Conjuncts[step]
		switch {
		case cj.Cached == cache.Hit:
			cj.Source = SourceHit
		case step == 0:
			if cj.Cached == cache.Delta {
				cj.Source = SourceDelta
			} else {
				cj.Source = SourceScan
			}
		default:
			if cj.Cached == cache.Delta {
				cj.Source = SourceDelta
			} else {
				cj.Source = SourceNarrow
			}
		}
	}
}

// Info summarises the plan for the wire: one step per conjunct, in
// execution order.
func (p *Plan) Info() *PlanInfo {
	info := &PlanInfo{Tuples: p.Tuples, Steps: make([]StepInfo, len(p.Conjuncts))}
	for i, cj := range p.Conjuncts {
		info.Steps[i] = StepInfo{
			Index:    cj.Index,
			Source:   cj.Source,
			Est:      cj.Est,
			EstKnown: cj.EstKnown,
			Tested:   cj.Tested,
			Hits:     cj.Hits,
		}
	}
	return info
}
