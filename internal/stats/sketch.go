package stats

import "sync"

// QuerySketch is the planner's per-table selectivity sketch: a cheap,
// bounded record of how selective each observed search token was, plus a
// running prior for tokens never seen before. The server cannot inspect
// plaintext columns — trapdoors are opaque — so the sketch keys on a
// 64-bit token digest (storage passes the first 8 bytes of the result
// cache key's SHA-256 token digest) and buckets its priors by token word
// length, which is the per-column signal ciphertext actually carries (in
// PerColumnWidth layouts the word length identifies the column group; in
// the fixed layout there is a single bucket). Everything recorded is a function of
// the access pattern the scheme already reveals per query (ph.Result
// carries hit positions on the wire), so the sketch learns nothing Eve
// does not hold by construction.
//
// Feeding: storage observes every scan it runs — full scans record a
// token's marginal selectivity, narrowed scans (conjunct evaluated only
// on surviving candidates) record its selectivity conditioned on the
// conjuncts before it, which is exactly the quantity a planner ordering
// conjuncts wants. Appends need no sketch update: estimates are
// fractions of the positions scanned, and the table cardinality they
// scale against belongs to the table entry, not the sketch.
type QuerySketch struct {
	mu sync.Mutex
	// byToken maps token digest -> aggregate observations.
	byToken map[uint64]tokenStat
	// ring holds insertion order for bounded eviction.
	ring []uint64
	next int
	// byLen aggregates per word-length totals for the prior.
	byLen map[int]lenStat
}

// tokenStat aggregates the observations for one token digest.
type tokenStat struct {
	hits    uint64
	scanned uint64
}

// lenStat aggregates observations per token word length.
type lenStat struct {
	hits    uint64
	scanned uint64
}

// maxTrackedTokens bounds the sketch's footprint per table. When full,
// the oldest tracked token is evicted ring-buffer style; a workload's hot
// tokens re-enter on their next scan.
const maxTrackedTokens = 4096

// defaultPrior is the selectivity assumed for a token with no
// observations at all (no token seen, not even for its word length).
// Exact selects usually return a small fraction of the table, but the
// prior is deliberately pessimistic so an unknown conjunct is never
// ordered ahead of one the sketch has actually measured as selective.
const defaultPrior = 0.5

// NewQuerySketch creates an empty sketch.
func NewQuerySketch() *QuerySketch {
	return &QuerySketch{
		byToken: make(map[uint64]tokenStat),
		byLen:   make(map[int]lenStat),
	}
}

// Observe records one scan of a token: it tested scanned positions and
// hit hits of them. wordLen buckets the observation for the per-length
// prior. Zero-scan observations are ignored.
func (s *QuerySketch) Observe(digest uint64, wordLen, hits, scanned int) {
	if scanned <= 0 || hits < 0 || hits > scanned {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, known := s.byToken[digest]
	st.hits += uint64(hits)
	st.scanned += uint64(scanned)
	if !known {
		if len(s.ring) < maxTrackedTokens {
			s.ring = append(s.ring, digest)
		} else {
			delete(s.byToken, s.ring[s.next])
			s.ring[s.next] = digest
			s.next = (s.next + 1) % maxTrackedTokens
		}
	}
	s.byToken[digest] = st
	ls := s.byLen[wordLen]
	ls.hits += uint64(hits)
	ls.scanned += uint64(scanned)
	s.byLen[wordLen] = ls
}

// Estimate returns the estimated selectivity of a token in [0, 1] and
// whether the estimate comes from direct observations of this token
// (known) rather than from the per-length prior.
func (s *QuerySketch) Estimate(digest uint64, wordLen int) (sel float64, known bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.byToken[digest]; ok && st.scanned > 0 {
		return float64(st.hits) / float64(st.scanned), true
	}
	return s.priorLocked(wordLen), false
}

// Prior returns the selectivity assumed for an unobserved token of the
// given word length: the mean observed selectivity of that length bucket,
// or defaultPrior when the bucket is empty.
func (s *QuerySketch) Prior(wordLen int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.priorLocked(wordLen)
}

// priorLocked computes Prior under s.mu.
func (s *QuerySketch) priorLocked(wordLen int) float64 {
	if ls, ok := s.byLen[wordLen]; ok && ls.scanned > 0 {
		return float64(ls.hits) / float64(ls.scanned)
	}
	return defaultPrior
}
