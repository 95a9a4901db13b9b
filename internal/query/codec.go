package query

import (
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
func DecodeRequest(payload []byte) (name string, flags byte, plans [][]*ph.EncryptedQuery, err error) {
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
	// A plan is at least its conjunct count and one query of two
	// length-prefixed fields.
	plans = make([][]*ph.EncryptedQuery, 0, wire.ClampCount(uint32(n), r.Remaining()/10))
	for i := 0; i < int(n); i++ {
		k, err := r.U16()
		if err != nil {
			return "", 0, nil, fmt.Errorf("query: plan %d conjunct count: %w", i, err)
		}
		if k == 0 {
			return "", 0, nil, fmt.Errorf("query: plan %d is an empty conjunction", i)
		}
		qs := make([]*ph.EncryptedQuery, 0, wire.ClampCount(uint32(k), r.Remaining()/8))
		for j := 0; j < int(k); j++ {
			q, err := wire.DecodeQuery(r)
			if err != nil {
				return "", 0, nil, fmt.Errorf("query: plan %d conjunct %d: %w", i, j, err)
			}
			qs = append(qs, q)
		}
		plans = append(plans, qs)
	}
	return name, flags, plans, r.Err()
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
func DecodeResponses(payload []byte) (flags byte, resps []Response, err error) {
	r := wire.NewBuffer(payload)
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
	resps = make([]Response, 0, wire.ClampCount(uint32(n), r.Remaining()/8))
	for i := 0; i < int(n); i++ {
		var resp Response
		switch flags {
		case wire.ReadFlagExplain:
			resp.Plan, err = decodePlan(r)
		case wire.ReadFlagVerified:
			resp.Verified, err = authindex.DecodeVerifiedResult(r)
		default:
			resp.Result, err = wire.DecodeResult(r)
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
