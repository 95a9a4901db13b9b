package query

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/wire"
)

// StepInfo is one plan step as it travels in an explain answer: which
// request conjunct ran, how it was served, and what it cost.
type StepInfo struct {
	// Index is the conjunct's position in the request.
	Index int
	// Source is how the conjunct was served (predicted, in explain mode).
	Source Source
	// Est is the planner's selectivity estimate.
	Est float64
	// EstKnown reports whether Est came from observations of this token.
	EstKnown bool
	// Tested counts positions actually tested (0 in explain mode).
	Tested int
	// Hits is the survivor count after this step (0 in explain mode).
	Hits int
}

// PlanInfo is the wire-facing plan summary.
type PlanInfo struct {
	// Tuples is the table snapshot's tuple count.
	Tuples int
	// Steps are the conjuncts in execution order.
	Steps []StepInfo
}

// Response is the answer to one plan of a read request. Exactly one
// field is set, selected by the request's flags. An answer from
// storage.Store.Read is a read-only view whose tuple bytes (and
// positions, which may be a cached entry's) belong to the store; one
// decoded by DecodeResponses owns its memory.
type Response struct {
	// Plan is the planned conjunct order (wire.ReadFlagExplain).
	Plan *PlanInfo
	// Result holds the plan's matching tuples (no flag).
	Result *ph.Result
	// Verified holds them with one multiproof, root, leaf count and version
	// (wire.ReadFlagVerified).
	Verified *authindex.VerifiedResult
}

// Matches returns the answer's result, plain or verified (nil for an
// explain answer).
func (resp Response) Matches() *ph.Result {
	if resp.Verified != nil {
		return resp.Verified.Result
	}
	return resp.Result
}

// maxCount is the largest plan or conjunct count the u16 fields carry.
const maxCount = 1<<16 - 1

// EncodeRequest serialises a read request (wire.CmdQuery): table name,
// flags (wire.ReadFlag*), plan count, then per plan its conjunct count
// and encrypted queries.
func EncodeRequest(dst []byte, name string, flags byte, plans [][]*ph.EncryptedQuery) ([]byte, error) {
	if len(plans) > maxCount {
		return nil, fmt.Errorf("query: %d plans exceed the %d a request carries", len(plans), maxCount)
	}
	dst = wire.AppendString(dst, name)
	dst = wire.AppendU8(dst, flags)
	dst = wire.AppendU16(dst, uint16(len(plans)))
	for _, qs := range plans {
		if len(qs) > maxCount {
			return nil, fmt.Errorf("query: %d conjuncts exceed the %d a plan carries", len(qs), maxCount)
		}
		dst = wire.AppendU16(dst, uint16(len(qs)))
		for _, q := range qs {
			dst = wire.EncodeQuery(dst, q)
		}
	}
	return dst, nil
}

// DecodeRequest parses a read request, which must fill the payload
// exactly. Flags must be known and mutually exclusive; a request carries
// at least one plan, and every plan at least one conjunct. Counts are
// clamped against what the payload could hold before anything is
// allocated.
//
// What it returns is the name and three allocations, whatever the
// request holds — one for a request of at most smallRequest conjuncts:
// every conjunct of every plan shares one []ph.EncryptedQuery, and
// their pointers one []*ph.EncryptedQuery that the plans are cut from.
// Each token is a view of payload (wire.DecodeQuery), valid for as long
// as the payload is — for a server, until it has written the answer and
// reads the next frame into the same buffer — so nothing may keep a
// token past the request (see storage.Store.Read). A conjunct of
// scheme, the scheme the caller serves, carries that string, any other
// a copy of its own.
func DecodeRequest(payload []byte, scheme string) (name string, flags byte, plans [][]*ph.EncryptedQuery, err error) {
	r := wire.NewBuffer(payload)
	if name, err = r.String(); err != nil {
		return "", 0, nil, fmt.Errorf("query: request table name: %w", err)
	}
	if flags, err = r.U8(); err != nil {
		return "", 0, nil, fmt.Errorf("query: request flags: %w", err)
	}
	switch flags {
	case 0, wire.ReadFlagVerified, wire.ReadFlagExplain:
	default:
		return "", 0, nil, fmt.Errorf("query: request flags %#x: unknown or combined", flags)
	}
	n, err := r.U16()
	if err != nil {
		return "", 0, nil, fmt.Errorf("query: request plan count: %w", err)
	}
	if n == 0 {
		return "", 0, nil, fmt.Errorf("query: request carries no plans")
	}
	// The first pass validates the plans and counts their conjuncts, the
	// second fills what the count sized. Every conjunct is two
	// length-prefixed fields, so the count is bounded by the payload.
	body := *r
	total, err := readPlans(r, int(n), nil, scheme)
	if err != nil {
		return "", 0, nil, err
	}
	if err := r.Err(); err != nil {
		return "", 0, nil, err
	}
	var d decoded
	if total <= smallRequest {
		sm := new(small)
		d = decoded{qs: sm.qs[:total], ptrs: sm.ptrs[:total], plans: sm.plans[:0:n]}
	} else {
		d = decoded{qs: make([]ph.EncryptedQuery, total), ptrs: make([]*ph.EncryptedQuery, total), plans: make([][]*ph.EncryptedQuery, 0, n)}
	}
	if _, err := readPlans(&body, int(n), &d, scheme); err != nil {
		return "", 0, nil, err // unreachable: the first pass read the same bytes
	}
	return name, flags, d.plans, nil
}

// decoded is what the second pass of DecodeRequest fills: the shared
// conjuncts, their pointers and the plans cut from them.
type decoded struct {
	qs    []ph.EncryptedQuery
	ptrs  []*ph.EncryptedQuery
	plans [][]*ph.EncryptedQuery
}

// smallRequest is the most conjuncts a request decodes into one
// allocation, small: a select, a conjunction of a few predicates, or a
// batch of a few selects — nearly every request.
const smallRequest = 4

// small is the backing of a decoded request of at most smallRequest
// conjuncts, and so at most as many plans.
type small struct {
	qs    [smallRequest]ph.EncryptedQuery
	ptrs  [smallRequest]*ph.EncryptedQuery
	plans [smallRequest][]*ph.EncryptedQuery
}

// readPlans reads n plans from r and returns how many conjuncts they
// hold; with d it also decodes them into d, which has room for them.
func readPlans(r *wire.Buffer, n int, d *decoded, scheme string) (int, error) {
	total := 0
	for i := 0; i < n; i++ {
		k, err := r.U16()
		if err != nil {
			return 0, fmt.Errorf("query: plan %d conjunct count: %w", i, err)
		}
		if k == 0 {
			return 0, fmt.Errorf("query: plan %d is an empty conjunction", i)
		}
		for j := 0; j < int(k); j++ {
			var err error
			if d == nil {
				var q ph.EncryptedQuery
				err = wire.DecodeQuery(r, &q, scheme)
			} else {
				d.ptrs[total+j] = &d.qs[total+j]
				err = wire.DecodeQuery(r, d.ptrs[total+j], scheme)
			}
			if err != nil {
				return 0, fmt.Errorf("query: plan %d conjunct %d: %w", i, j, err)
			}
		}
		if d != nil {
			d.plans = append(d.plans, d.ptrs[total:total+int(k):total+int(k)])
		}
		total += int(k)
	}
	return total, nil
}

// EncodeResponses serialises the answer to a read request
// (wire.RespResult, and each shard's sub-answer in a
// wire.RespResultShard): the request's flags, then one answer per plan
// in request order, in the shape the flags select.
func EncodeResponses(dst []byte, flags byte, resps []Response) []byte {
	dst = wire.AppendU8(dst, flags)
	dst = wire.AppendU16(dst, uint16(len(resps)))
	for _, resp := range resps {
		switch flags {
		case wire.ReadFlagExplain:
			dst = encodePlan(dst, resp.Plan)
		case wire.ReadFlagVerified:
			dst = authindex.EncodeVerifiedResult(dst, resp.Verified)
		default:
			dst = wire.EncodeResult(dst, resp.Result)
		}
	}
	return dst
}

// DecodeResponses parses the answer to a read request, which must fill
// the payload exactly. Counts are clamped and validated like every
// other decoder in the protocol — a hostile frame can make decoding
// fail, never allocate unboundedly — and result positions must be
// non-negative and strictly ascending: they are coordinates into the
// table (or, behind a coordinator, into one shard of it), and an answer
// that repeats or reorders them is malformed, not something for the
// caller to sort into shape.
//
// The answers own their memory, and it is one copy of the payload: the
// tuples, roots and proofs are views of it (wire.NewOwnedBuffer), so the
// caller may reuse payload at once. A one-plan answer's Response and the
// Result or VerifiedResult it points to are one allocation; past one
// plan every plain answer's Result comes from one array, and a verified
// answer and its Result are one allocation
// (authindex.DecodeVerifiedResult).
func DecodeResponses(payload []byte) (flags byte, resps []Response, err error) {
	r := wire.NewOwnedBuffer(bytes.Clone(payload))
	if flags, err = r.U8(); err != nil {
		return 0, nil, fmt.Errorf("query: response flags: %w", err)
	}
	if flags != 0 && flags != wire.ReadFlagVerified && flags != wire.ReadFlagExplain {
		return 0, nil, fmt.Errorf("query: response flags %#x: unknown or combined", flags)
	}
	n, err := r.U16()
	if err != nil {
		return 0, nil, fmt.Errorf("query: response plan count: %w", err)
	}
	// The smallest answer is a plain result's two zero counts.
	var one *oneAnswer
	var results []ph.Result
	if n == 1 {
		one = new(oneAnswer)
		resps = one.resp[:0]
	} else {
		most := wire.ClampCount(uint32(n), r.Remaining()/8)
		resps = make([]Response, 0, most)
		if flags == 0 {
			results = make([]ph.Result, 0, most)
		}
	}
	for i := 0; i < int(n); i++ {
		var resp Response
		switch {
		case flags == wire.ReadFlagExplain:
			resp.Plan, err = decodePlan(r)
		case flags == wire.ReadFlagVerified && one != nil:
			resp.Verified = &one.vr
			err = authindex.DecodeVerifiedResultInto(r, &one.vr, &one.res)
		case flags == wire.ReadFlagVerified:
			resp.Verified, err = authindex.DecodeVerifiedResult(r)
		case one != nil:
			resp.Result = &one.res
			err = wire.DecodeResultInto(r, resp.Result)
		default:
			results = append(results, ph.Result{})
			resp.Result = &results[len(results)-1]
			err = wire.DecodeResultInto(r, resp.Result)
		}
		if err == nil && resp.Plan == nil {
			err = checkPositions(resp.Matches().Positions)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("query: plan %d answer: %w", i, err)
		}
		resps = append(resps, resp)
	}
	return flags, resps, r.Err()
}

// oneAnswer is the memory of a one-plan answer: its Response and the
// Result, and for a verified answer the VerifiedResult, it points to.
type oneAnswer struct {
	resp [1]Response
	res  ph.Result
	vr   authindex.VerifiedResult
}

// checkPositions rejects positions that are negative or not strictly
// ascending.
func checkPositions(positions []int) error {
	for i, p := range positions {
		if p < 0 {
			return fmt.Errorf("negative result position %d", p)
		}
		if i > 0 && p <= positions[i-1] {
			return fmt.Errorf("result positions not strictly ascending (%d after %d)", p, positions[i-1])
		}
	}
	return nil
}

// maxPlanSteps caps the decoded plan length; a conjunction is a handful
// of predicates, never thousands, and a hostile count must not force a
// large allocation.
const maxPlanSteps = 1 << 16

// encodePlan serialises a plan summary.
func encodePlan(dst []byte, info *PlanInfo) []byte {
	dst = wire.AppendU32(dst, uint32(info.Tuples))
	dst = wire.AppendU32(dst, uint32(len(info.Steps)))
	for _, st := range info.Steps {
		dst = wire.AppendU32(dst, uint32(st.Index))
		dst = wire.AppendU8(dst, byte(st.Source))
		dst = wire.AppendU64(dst, math.Float64bits(st.Est))
		known := byte(0)
		if st.EstKnown {
			known = 1
		}
		dst = wire.AppendU8(dst, known)
		dst = wire.AppendU32(dst, uint32(st.Tested))
		dst = wire.AppendU32(dst, uint32(st.Hits))
	}
	return dst
}

// decodePlan parses a plan summary.
func decodePlan(r *wire.Buffer) (*PlanInfo, error) {
	tuples, err := r.U32()
	if err != nil {
		return nil, fmt.Errorf("query: plan tuple count: %w", err)
	}
	n, err := r.U32()
	if err != nil {
		return nil, fmt.Errorf("query: plan step count: %w", err)
	}
	if n > maxPlanSteps {
		return nil, fmt.Errorf("query: plan of %d steps exceeds the %d cap", n, maxPlanSteps)
	}
	// Each step encodes to 22 bytes; the declared count cannot exceed
	// what the remaining payload could hold.
	if int64(n)*22 > int64(r.Remaining()) {
		return nil, fmt.Errorf("query: plan step count %d exceeds remaining payload", n)
	}
	info := &PlanInfo{Tuples: int(tuples), Steps: make([]StepInfo, n)}
	for i := range info.Steps {
		idx, err := r.U32()
		if err != nil {
			return nil, fmt.Errorf("query: plan step %d index: %w", i, err)
		}
		src, err := r.U8()
		if err != nil {
			return nil, fmt.Errorf("query: plan step %d source: %w", i, err)
		}
		if Source(src) > SourceSkipped {
			return nil, fmt.Errorf("query: plan step %d has unknown source %d", i, src)
		}
		estBits, err := r.U64()
		if err != nil {
			return nil, fmt.Errorf("query: plan step %d estimate: %w", i, err)
		}
		est := math.Float64frombits(estBits)
		if math.IsNaN(est) || est < 0 || est > 1 {
			return nil, fmt.Errorf("query: plan step %d estimate %v outside [0, 1]", i, est)
		}
		known, err := r.U8()
		if err != nil {
			return nil, fmt.Errorf("query: plan step %d est flag: %w", i, err)
		}
		tested, err := r.U32()
		if err != nil {
			return nil, fmt.Errorf("query: plan step %d tested: %w", i, err)
		}
		hits, err := r.U32()
		if err != nil {
			return nil, fmt.Errorf("query: plan step %d hits: %w", i, err)
		}
		info.Steps[i] = StepInfo{
			Index:    int(idx),
			Source:   Source(src),
			Est:      est,
			EstKnown: known != 0,
			Tested:   int(tested),
			Hits:     int(hits),
		}
	}
	return info, nil
}

// Render formats the plan for humans (phclient's -explain). labels, when
// non-nil, carries the plaintext predicate per *request index* — only
// the client holds plaintext, so the server-side summary is rendered
// against the client's own conditions.
func (p *PlanInfo) Render(table string, labels []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %s (%d tuples):\n", table, p.Tuples)
	for i, st := range p.Steps {
		label := fmt.Sprintf("conjunct #%d", st.Index)
		if st.Index >= 0 && st.Index < len(labels) {
			label = labels[st.Index]
		}
		origin := "prior"
		if st.EstKnown {
			origin = "observed"
		}
		fmt.Fprintf(&b, "  %d. %-28s est %.4f (%s, ~%d rows)  via %s",
			i+1, label, st.Est, origin, int(st.Est*float64(p.Tuples)+0.5), st.Source)
		if st.Tested > 0 || st.Hits > 0 {
			fmt.Fprintf(&b, "  [tested %d, survivors %d]", st.Tested, st.Hits)
		}
		b.WriteString("\n")
	}
	return b.String()
}
