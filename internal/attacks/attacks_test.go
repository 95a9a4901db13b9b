package attacks

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/games"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/schemes/bucket"
	"repro/internal/schemes/damiani"
	"repro/internal/schemes/detph"
	"repro/internal/stats"
	"repro/internal/workload"
)

// gateAlpha bounds both error rates of every statistical gate below: a
// correct attack fails it, and a broken one passes it, each with
// probability at most 10⁻⁶.
const gateAlpha = 1e-6

// minRate is the least share of trials any attack here must win: the
// gates below count trials to make a flake rare, never to ask less.
const minRate = 0.9

// winGate returns the least number of wins out of trials an attack must
// reach: minRate of them, and no fewer than a blind adversary — one
// winning each trial with probability blind, as every adversary does
// against a scheme that randomises what it attacks — reaches with
// probability gateAlpha. It stops the test unless an attack winning
// each trial with probability honest (a bound under the rate measured
// for it) reaches the gate with probability at least 1 − gateAlpha too:
// then trials is too small to tell the two apart.
func winGate(t *testing.T, trials int, blind, honest float64) int {
	t.Helper()
	c := max(stats.BinomialCritical(trials, blind, gateAlpha), int(math.Ceil(minRate*float64(trials))))
	if miss := 1 - stats.BinomialTail(trials, honest, c); miss > gateAlpha {
		t.Fatalf("%d trials cannot gate: an attack winning %v of them falls short of %d with probability %v",
			trials, honest, c, miss)
	}
	return c
}

func factory(name string) games.SchemeFactory {
	return func(s *relation.Schema) (ph.Scheme, error) {
		key, err := crypto.RandomKey()
		if err != nil {
			return nil, err
		}
		switch name {
		case core.SchemeID:
			return core.New(key, s, core.Options{})
		case bucket.SchemeID:
			return bucket.New(key, s, bucket.Options{})
		case damiani.SchemeID:
			return damiani.New(key, s, damiani.Options{})
		default:
			return detph.New(key, s)
		}
	}
}

func TestSalaryTablesMatchPaper(t *testing.T) {
	t1, t2 := SalaryTables()
	if t1.Len() != 2 || t2.Len() != 2 {
		t.Fatal("paper tables have two tuples each")
	}
	if t1.Tuple(0)[0].Integer() != 171 || t1.Tuple(1)[1].Integer() != 1200 {
		t.Fatalf("table 1 content wrong: %v", t1)
	}
	if t2.Tuple(1)[1].Integer() != 4900 {
		t.Fatalf("table 2 content wrong: %v", t2)
	}
}

// TestSalaryPairBreaksDeterministicSchemes: the salary-pair adversary
// wins against every deterministic comparator (paper §1) — more often
// than any adversary can against a scheme that randomises its
// ciphertexts, and in at least minRate of trials. It wins 0.955 of
// trials against damiani (40,000 trials measured) and all of them
// against bucket and detph; the gate assumes 0.94.
func TestSalaryPairBreaksDeterministicSchemes(t *testing.T) {
	const trials = 1000
	gate := winGate(t, trials, 0.5, 0.94)
	for _, name := range []string{bucket.SchemeID, damiani.SchemeID, detph.SchemeID} {
		g := games.Def21{Factory: factory(name), Q: 0, Mode: games.Passive}
		res, err := g.Run(SalaryPair{}, trials, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Wins < gate {
			t.Errorf("%s: salary-pair adversary won %v, want at least %d of %d (paper §1)", name, res, gate, trials)
		}
	}
}

func TestSalaryPairFailsAgainstCore(t *testing.T) {
	g := games.Def21{Factory: factory(core.SchemeID), Q: 0, Mode: games.Passive}
	res, err := g.Run(SalaryPair{}, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advantage() > 0.25 || res.Advantage() < -0.25 {
		t.Fatalf("salary-pair advantage %v against the paper's construction; expected ≈ 0", res.Advantage())
	}
}

func TestWordLengthPairFailsAgainstPaddedCore(t *testing.T) {
	g := games.Def21{Factory: factory(core.SchemeID), Q: 0, Mode: games.Passive}
	res, err := g.Run(WordLengthPair{}, 300, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Advantage() > 0.25 || res.Advantage() < -0.25 {
		t.Fatalf("word-length advantage %v; padding should hide value lengths", res.Advantage())
	}
}

func TestTheorem21ActiveBreaksCore(t *testing.T) {
	g := games.Def21{Factory: factory(core.SchemeID), Q: 1, Mode: games.Active}
	res, err := g.Run(Theorem21{Rows: 16}, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() < 0.99 {
		t.Fatalf("Theorem 2.1 adversary should always win with q=1: rate %v", res.Rate())
	}
}

func TestTheorem21PassiveBreaksCore(t *testing.T) {
	g := games.Def21{
		Factory:     factory(core.SchemeID),
		Q:           1,
		Mode:        games.Passive,
		AlexQueries: []relation.Eq{Theorem21Query()},
	}
	res, err := g.Run(Theorem21{Rows: 16}, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate() < 0.99 {
		t.Fatalf("passive Theorem 2.1 adversary should always win with q=1: rate %v", res.Rate())
	}
}

func TestTheorem21HarmlessAtQZero(t *testing.T) {
	// q = 0 is the paper's security claim: the generic adversary must be
	// reduced to guessing in both modes.
	for _, mode := range []games.Mode{games.Passive, games.Active} {
		g := games.Def21{Factory: factory(core.SchemeID), Q: 0, Mode: mode}
		res, err := g.Run(Theorem21{Rows: 16}, 300, 11)
		if err != nil {
			t.Fatal(err)
		}
		if res.Advantage() > 0.25 || res.Advantage() < -0.25 {
			t.Fatalf("%s q=0: advantage %v, expected ≈ 0", mode, res.Advantage())
		}
	}
}

// TestTheorem21BreaksEverySchemeWithOracle: the theorem is universal, so
// its adversary must break the comparators too, with one oracle query —
// winning more often than any adversary can against a scheme that
// randomises its ciphertexts, and in at least minRate of trials. It
// wins 0.972 of trials against bucket (20,000 trials measured), ≥ 0.99
// against damiani and detph; the gate assumes 0.94.
func TestTheorem21BreaksEverySchemeWithOracle(t *testing.T) {
	const trials = 1000
	gate := winGate(t, trials, 0.5, 0.94)
	for _, name := range []string{bucket.SchemeID, damiani.SchemeID, detph.SchemeID} {
		g := games.Def21{Factory: factory(name), Q: 1, Mode: games.Active}
		res, err := g.Run(Theorem21{Rows: 16}, trials, 12)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Wins < gate {
			t.Errorf("%s: Theorem 2.1 adversary won %v with q=1, want at least %d of %d", name, res, gate, trials)
		}
	}
}

func TestHospitalInferenceBeatsBlindGuess(t *testing.T) {
	rep, err := HospitalInference(factory(core.SchemeID), 600, 12, 21)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QueryIDRate < 0.5 {
		t.Fatalf("query identification rate %v; size fingerprinting should mostly work", rep.QueryIDRate)
	}
	if rep.MeanAbsError >= rep.BlindError {
		t.Fatalf("attack error %v not better than blind %v — no leakage demonstrated",
			rep.MeanAbsError, rep.BlindError)
	}
	if rep.MeanAbsError > 0.05 {
		t.Fatalf("attack error %v too large; intersection should estimate the rate closely", rep.MeanAbsError)
	}
}

func TestHospitalInferenceValidation(t *testing.T) {
	if _, err := HospitalInference(factory(core.SchemeID), 0, 5, 1); err == nil {
		t.Fatal("zero patients accepted")
	}
	if _, err := HospitalInference(factory(core.SchemeID), 100, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}

// TestJohnAttackRecoversEverything: the active attack recovers John's
// hospital and outcome in at least minRate of trials, and more often
// than the best blind guess does — the busiest hospital (half the
// patients) and "healthy" (1 − the fatality rate). Measured over 3,000 trials it recovers 0.997 of hospitals and
// 0.9997 of outcomes, an SWP false positive in John's answer costing the
// rest; the gates assume 0.98 and 0.985.
func TestJohnAttackRecoversEverything(t *testing.T) {
	const trials = 900
	hospitalGate := winGate(t, trials, slices.Max(workload.HospitalFlows), 0.98)
	outcomeGate := winGate(t, trials, 1-workload.OutcomeFatalRate, 0.985)
	rep, err := JohnAttack(factory(core.SchemeID), 300, trials, 31)
	if err != nil {
		t.Fatal(err)
	}
	wins := func(rate float64) int { return int(math.Round(rate * trials)) }
	if wins(rep.HospitalRate) < hospitalGate {
		t.Fatalf("hospital recovered in %d of %d trials, want at least %d: the attack guesses", wins(rep.HospitalRate), trials, hospitalGate)
	}
	if wins(rep.OutcomeRate) < outcomeGate {
		t.Fatalf("outcome recovered in %d of %d trials, want at least %d: the attack guesses", wins(rep.OutcomeRate), trials, outcomeGate)
	}
	if rep.OracleCalls != 5 {
		t.Fatalf("oracle calls = %d, want 5 (name + 3 hospitals + outcome)", rep.OracleCalls)
	}
}

func TestJohnAttackValidation(t *testing.T) {
	if _, err := JohnAttack(factory(core.SchemeID), -1, 5, 1); err == nil {
		t.Fatal("negative patients accepted")
	}
}

func TestMatchBySizeAssignsGreedily(t *testing.T) {
	observed := [][]int{make([]int, 40), make([]int, 8), make([]int, 20), make([]int, 30)}
	expected := []float64{20, 30, 50, 8} // h1, h2, h3, fatal of n=100
	assign := matchBySize(observed, expected)
	want := []int{2, 3, 0, 1}
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("assign = %v, want %v", assign, want)
		}
	}
}

func TestIntersectCount(t *testing.T) {
	if n := intersectCount([]int{1, 3, 5, 7}, []int{3, 4, 5, 6, 7}); n != 3 {
		t.Fatalf("intersectCount = %d, want 3", n)
	}
	if n := intersectCount(nil, []int{1}); n != 0 {
		t.Fatalf("intersectCount with empty = %d", n)
	}
}
