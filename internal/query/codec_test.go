package query

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/authindex"
	"repro/internal/ph"
	"repro/internal/wire"
)

func sampleInfo() *PlanInfo {
	return &PlanInfo{
		Tuples: 10000,
		Steps: []StepInfo{
			{Index: 1, Source: SourceScan, Est: 0.005, EstKnown: true, Tested: 10000, Hits: 48},
			{Index: 0, Source: SourceNarrow, Est: 0.5, Tested: 48, Hits: 23},
		},
	}
}

func sampleResult() *ph.Result {
	return &ph.Result{
		Positions: []int{3, 9},
		Tuples: []ph.EncryptedTuple{
			{ID: []byte{3}, Words: [][]byte{[]byte("w3")}},
			{ID: []byte{9}, Words: [][]byte{[]byte("w9")}},
		},
	}
}

func sampleVerified() *authindex.VerifiedResult {
	return &authindex.VerifiedResult{
		Result:     sampleResult(),
		Root:       []byte("0123456789abcdef0123456789abcdef"),
		Leaves:     10_000, // above the cap, so two positions may carry siblings
		Version:    42,
		Multiproof: []byte("0123456789abcdef0123456789abcdeffedcba9876543210fedcba9876543210"),
	}
}

func sampleQueries() []*ph.EncryptedQuery {
	return []*ph.EncryptedQuery{
		{SchemeID: "swp-ph", Token: []byte("tok-a")},
		{SchemeID: "swp-ph", Token: []byte("tok-b")},
	}
}

// sampleResponses is one two-plan answer per response shape, by flags.
func sampleResponses() map[byte][]Response {
	return map[byte][]Response{
		0:                     {{Result: sampleResult()}, {Result: &ph.Result{}}},
		wire.ReadFlagVerified: {{Verified: sampleVerified()}, {Verified: sampleVerified()}},
		wire.ReadFlagExplain:  {{Plan: sampleInfo()}, {Plan: &PlanInfo{Tuples: 3, Steps: []StepInfo{{Index: 0, Source: SourceSkipped, Est: 1}}}}},
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	for flags, resps := range sampleResponses() {
		enc := EncodeResponses(nil, flags, resps)
		got, dec, err := DecodeResponses(enc)
		if err != nil {
			t.Fatalf("flags %#x: decode: %v", flags, err)
		}
		if got != flags || len(dec) != len(resps) {
			t.Fatalf("flags %#x: decoded flags %#x, %d answers", flags, got, len(dec))
		}
		if re := EncodeResponses(nil, got, dec); !reflect.DeepEqual(enc, re) {
			t.Fatalf("flags %#x: re-encoding differs", flags)
		}
		for i := range dec {
			if !reflect.DeepEqual(dec[i].Plan, resps[i].Plan) {
				t.Fatalf("flags %#x: plan %d = %+v, want %+v", flags, i, dec[i].Plan, resps[i].Plan)
			}
			if (dec[i].Result == nil) != (resps[i].Result == nil) || (dec[i].Verified == nil) != (resps[i].Verified == nil) {
				t.Fatalf("flags %#x: answer %d shape mismatch", flags, i)
			}
		}
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	qs := sampleQueries()
	plans := [][]*ph.EncryptedQuery{qs, qs[:1]}
	payload, err := EncodeRequest(nil, "emp", wire.ReadFlagVerified, plans)
	if err != nil {
		t.Fatal(err)
	}
	name, flags, got, err := DecodeRequest(payload)
	if err != nil || name != "emp" || flags != wire.ReadFlagVerified || !reflect.DeepEqual(got, plans) {
		t.Fatalf("decoded %q, flags %#x, %d plans, %v", name, flags, len(got), err)
	}
	// A select costs 5 bytes over name | query: flags and the two counts.
	single, _ := EncodeRequest(nil, "emp", 0, plans[1:])
	if want := len(wire.EncodeQuery(wire.AppendString(nil, "emp"), qs[0])) + 5; len(single) != want {
		t.Fatalf("single-select request is %d bytes, want %d", len(single), want)
	}
	if _, err := EncodeRequest(nil, "emp", 0, make([][]*ph.EncryptedQuery, 1<<16)); err == nil {
		t.Fatal("a plan count past the u16 field must be refused, not truncated")
	}
}

// TestDecodeRejectsMalformed: every structurally wrong request or
// response fails cleanly — and, for the count bombs, without a
// count-proportional allocation.
func TestDecodeRejectsMalformed(t *testing.T) {
	head := func(flags byte, plans uint16) []byte {
		return wire.AppendU16(wire.AppendU8(wire.AppendString(nil, "emp"), flags), plans)
	}
	good, _ := EncodeRequest(nil, "emp", 0, [][]*ph.EncryptedQuery{sampleQueries()})
	requests := map[string][]byte{
		"trailing byte":      append(append([]byte(nil), good...), 0),
		"truncated":          good[:len(good)-1],
		"unknown flag":       append(head(1<<5, 1), good[len(head(0, 1)):]...),
		"combined flags":     append(head(wire.ReadFlagVerified|wire.ReadFlagExplain, 1), good[len(head(0, 1)):]...),
		"no plans":           head(0, 0),
		"retired fetch flag": head(1<<2, 0),
		"fetch with a plan":  append(head(1<<2, 1), good[len(head(0, 1)):]...),
		"empty conjunction":  wire.AppendU16(head(0, 1), 0),
		"plan-count bomb":    head(0, 0xFFFF),
		"conjunct-count bom": wire.AppendU16(head(0, 1), 0xFFFF),
	}
	for name, payload := range requests {
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, _, err := DecodeRequest(payload); err == nil {
				t.Fatalf("request with %s accepted", name)
			}
		})
		if allocs > 50 {
			t.Fatalf("request with %s cost %.0f allocations", name, allocs)
		}
	}

	explain := func(steps uint32, est uint64) []byte {
		p := wire.AppendU16(wire.AppendU8(nil, wire.ReadFlagExplain), 1)
		p = wire.AppendU32(wire.AppendU32(p, 100), steps) // tuples, step count
		p = wire.AppendU8(wire.AppendU32(p, 0), 0)        // index, source
		p = wire.AppendU8(wire.AppendU64(p, est), 0)      // estimate, known
		return wire.AppendU32(wire.AppendU32(p, 0), 0)    // tested, hits
	}
	plain := EncodeResponses(nil, 0, sampleResponses()[0])
	responses := map[string][]byte{
		"trailing byte":       append(append([]byte(nil), plain...), 0),
		"truncated":           plain[:len(plain)/2],
		"unknown flag":        append([]byte{1 << 5}, plain[1:]...),
		"fetch flag":          append([]byte{1 << 2}, plain[1:]...),
		"answer-count bomb":   wire.AppendU16(wire.AppendU8(nil, 0), 0xFFFF),
		"step-count bomb":     explain(0xFFFFFFFF, 0),
		"NaN estimate":        explain(1, 0x7FF8000000000001),
		"repeated position":   EncodeResponses(nil, 0, []Response{{Result: &ph.Result{Positions: []int{4, 4}}}}),
		"descending position": EncodeResponses(nil, 0, []Response{{Result: &ph.Result{Positions: []int{4, 2}}}}),
	}
	for name, payload := range responses {
		if _, _, err := DecodeResponses(payload); err == nil {
			t.Fatalf("response with %s accepted", name)
		}
	}
	if _, _, err := DecodeResponses(explain(1, 0)); err != nil {
		t.Fatalf("well-formed explain answer rejected: %v", err)
	}
}

func TestRenderUsesLabels(t *testing.T) {
	out := sampleInfo().Render("emp", []string{"dept = 'HR'", "salary = 7500"})
	for _, want := range []string{"plan for emp (10000 tuples)", "salary = 7500", "dept = 'HR'", "full-scan", "narrow", "observed", "prior"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered plan missing %q:\n%s", want, out)
		}
	}
	// Steps render in execution order: the selective conjunct (request
	// index 1) first.
	if strings.Index(out, "salary = 7500") > strings.Index(out, "dept = 'HR'") {
		t.Fatalf("execution order not reflected:\n%s", out)
	}
}
