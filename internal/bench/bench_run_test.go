package bench

import (
	"strconv"
	"strings"
	"testing"
)

// These tests run every experiment at reduced size and assert the *shapes*
// the paper predicts — they are the repository's headline-claim regression
// suite.

// cell parses a table cell as float.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(tab.Rows[row][col]), 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q is not numeric: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

// findRow locates the first row whose first cell equals name.
func findRow(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, r := range tab.Rows {
		if r[0] == name {
			return i
		}
	}
	t.Fatalf("%s: no row %q", tab.ID, name)
	return -1
}

func TestE1Shapes(t *testing.T) {
	tab, err := RunE1(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic-index schemes: advantage near 1.
	for _, name := range []string{"bucket", "damiani", "detph"} {
		if adv := cell(t, tab, findRow(t, tab, name), 2); adv < 0.8 {
			t.Errorf("E1 %s advantage %v, want ≈ 1", name, adv)
		}
	}
	// Both secure instantiations: advantage near 0.
	for _, name := range []string{"swp-ph", "goh-ph"} {
		if adv := cell(t, tab, findRow(t, tab, name), 2); adv > 0.35 || adv < -0.35 {
			t.Errorf("E1 %s advantage %v, want ≈ 0", name, adv)
		}
	}
}

func TestE2Shapes(t *testing.T) {
	tab, err := RunE2(400, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Against the paper's construction the attack must beat blind
	// guessing: leakage despite q=0-security.
	row := findRow(t, tab, "swp-ph")
	attackErr := cell(t, tab, row, 4)
	blindErr := cell(t, tab, row, 5)
	if attackErr >= blindErr {
		t.Errorf("E2: attack error %v not better than blind %v", attackErr, blindErr)
	}
	if qid := cell(t, tab, row, 1); qid < 0.5 {
		t.Errorf("E2: query identification rate %v too low", qid)
	}
}

func TestE3Shapes(t *testing.T) {
	tab, err := RunE3(300, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	row := findRow(t, tab, "swp-ph")
	if hosp := cell(t, tab, row, 2); hosp < 0.8 {
		t.Errorf("E3: hospital recovery %v, want ≈ 1", hosp)
	}
	if out := cell(t, tab, row, 3); out < 0.8 {
		t.Errorf("E3: outcome recovery %v, want ≈ 1", out)
	}
}

func TestE4Shapes(t *testing.T) {
	tab, err := RunE4(60, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		q, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatal(err)
		}
		adv, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if q == 0 && (adv > 0.35 || adv < -0.35) {
			t.Errorf("E4 q=0 %s: advantage %v, want ≈ 0 (the security claim)", row[1], adv)
		}
		if q > 0 && adv < 0.9 {
			t.Errorf("E4 q=%d %s: advantage %v, want ≈ 1 (Theorem 2.1)", q, row[1], adv)
		}
	}
}

func TestE5Shapes(t *testing.T) {
	tab, err := RunE5(120000, 5)
	if err != nil {
		t.Fatal(err)
	}
	rowOf := func(inst, param string) int {
		for i, r := range tab.Rows {
			if r[0] == inst && r[1] == param {
				return i
			}
		}
		t.Fatalf("no row %s/%s", inst, param)
		return -1
	}
	// SWP m=1: measured within a factor 3 of 1/256.
	m1 := cell(t, tab, rowOf("swp", "m=1"), 3)
	if m1 < 1.0/256/3 || m1 > 3.0/256 {
		t.Errorf("E5 swp m=1 measured %v, want ≈ %v", m1, 1.0/256)
	}
	// SWP m=3, m=4: zero false hits at this probe count.
	for _, param := range []string{"m=3", "m=4"} {
		if hits := cell(t, tab, rowOf("swp", param), 4); hits != 0 {
			t.Errorf("E5 swp %s: %v false hits, want 0", param, hits)
		}
	}
	// Goh 1e-2 target: measured within a factor 4 of theory.
	g := rowOf("goh", "fp=1e-02")
	theo := cell(t, tab, g, 2)
	meas := cell(t, tab, g, 3)
	if meas > 4*theo+1e-9 {
		t.Errorf("E5 goh fp=1e-02 measured %v far above theory %v", meas, theo)
	}
}

func TestE6Shapes(t *testing.T) {
	tab, err := RunE6([]int{200}, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Every scheme must return the same true result sizes as the
	// plaintext scan (correctness), and bucket's pre-filter result must
	// be at least the true result (false positives only inflate).
	plain := findRow(t, tab, "plaintext scan")
	trueSize := cell(t, tab, plain, 6)
	for _, name := range SchemeNames {
		row := findRow(t, tab, name)
		if got := cell(t, tab, row, 6); got != trueSize {
			t.Errorf("E6 %s true result %v, plaintext %v", name, got, trueSize)
		}
		if pre := cell(t, tab, row, 5); pre < trueSize {
			t.Errorf("E6 %s pre-filter %v smaller than true %v", name, pre, trueSize)
		}
	}
}

func TestE7NoMismatches(t *testing.T) {
	tab, err := RunE7(4, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[3] != "0" {
			t.Errorf("E7 %s: %s homomorphism mismatches", row[0], row[3])
		}
	}
}

func TestE8Shapes(t *testing.T) {
	tab, err := RunE8([]int{64, 1024}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[4] != "true" {
			t.Errorf("E8 n=%s: tampering not detected", row[0])
		}
	}
	// Proof size grows logarithmically: 1024 leaves → ~10 hashes.
	h64 := cell(t, tab, 0, 1)
	h1024 := cell(t, tab, 1, 1)
	if h1024 > h64+6 || h1024 < h64 {
		t.Errorf("E8 proof growth not logarithmic: %v -> %v hashes", h64, h1024)
	}
}

func TestE9Shapes(t *testing.T) {
	tab, err := RunE9(400, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	base := cell(t, tab, findRow(t, tab, "detph"), 2)
	if rec := cell(t, tab, findRow(t, tab, "detph"), 1); rec < 0.9 {
		t.Errorf("E9 detph recovery %v, want ≈ 1", rec)
	}
	if rec := cell(t, tab, findRow(t, tab, "damiani"), 1); rec < base-0.3 {
		t.Errorf("E9 damiani recovery %v too low", rec)
	}
	// The paper's construction must leak nothing rankable: recovery well
	// below the guess-the-mode baseline.
	swpRec := cell(t, tab, findRow(t, tab, "swp-ph"), 1)
	swpBase := cell(t, tab, findRow(t, tab, "swp-ph"), 2)
	if swpRec > swpBase/2 {
		t.Errorf("E9 swp-ph recovery %v not far below baseline %v", swpRec, swpBase)
	}
}

func TestE10Shapes(t *testing.T) {
	tab, err := RunE10(200, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	fixed := cell(t, tab, 0, 1)
	varlen := cell(t, tab, 1, 1)
	if varlen >= fixed {
		t.Errorf("E10: variable-length layout (%v B/tuple) not smaller than fixed (%v)", varlen, fixed)
	}
	for i, row := range tab.Rows {
		if row[2] != "0" {
			t.Errorf("E10 row %d: %s select mismatches", i, row[2])
		}
		adv := cell(t, tab, i, 3)
		if adv > 0.35 || adv < -0.35 {
			t.Errorf("E10 row %d: salary-pair advantage %v, want ≈ 0", i, adv)
		}
	}
}

func TestE11Shapes(t *testing.T) {
	tab, err := RunE11(600, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	// q = 0: error equals the blind baseline, coverage zero.
	if first[1] != first[2] {
		t.Errorf("E11 q=0: error %s != blind %s", first[1], first[2])
	}
	if cov := cell(t, tab, 0, 3); cov != 0 {
		t.Errorf("E11 q=0 coverage %v, want 0", cov)
	}
	// Largest q: error well below blind, coverage high.
	lastErr := cell(t, tab, len(tab.Rows)-1, 1)
	lastBlind := cell(t, tab, len(tab.Rows)-1, 2)
	if lastErr > lastBlind/2 {
		t.Errorf("E11 q=%s: error %v not well below blind %v", last[0], lastErr, lastBlind)
	}
	if cov := cell(t, tab, len(tab.Rows)-1, 3); cov < 0.5 {
		t.Errorf("E11 q=%s coverage %v, want > 0.5", last[0], cov)
	}
}

func TestE12Shapes(t *testing.T) {
	tab, err := RunE12(300, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range SchemeNames {
		row := findRow(t, tab, name)
		// Every scheme expands the plaintext (> 1x) but within reason.
		exp := cell(t, tab, row, 2)
		if exp <= 1 || exp > 20 {
			t.Errorf("E12 %s expansion %v implausible", name, exp)
		}
		if tok := cell(t, tab, row, 3); tok <= 0 || tok > 1024 {
			t.Errorf("E12 %s token bytes %v implausible", name, tok)
		}
	}
	// Bucketization ships false positives: its per-true-tuple result
	// bytes must exceed detph's (no false positives, same blob format).
	b := cell(t, tab, findRow(t, tab, "bucket"), 4)
	d := cell(t, tab, findRow(t, tab, "detph"), 4)
	if b <= d {
		t.Errorf("E12: bucket result bytes %v not above detph %v (false positives missing?)", b, d)
	}
}

func TestE13Shapes(t *testing.T) {
	// 8192 tuples: big enough to engage core.Evaluate's parallel path,
	// small enough for a test. Timing cells are machine noise and stay
	// unasserted; the allocation shape is the regression being pinned.
	tab, err := RunE13(8192, 13)
	if err != nil {
		t.Fatal(err)
	}
	seedRow := findRow(t, tab, "swp match: seed")
	engineRow := findRow(t, tab, "swp match: engine")
	if allocs := cell(t, tab, engineRow, 4); allocs != 0 {
		t.Errorf("E13: engine match path reports %v allocs/op, want 0", allocs)
	}
	if allocs := cell(t, tab, seedRow, 4); allocs == 0 {
		t.Error("E13: seed match path reports 0 allocs/op; the before/after comparison is broken")
	}
	if b := cell(t, tab, engineRow, 3); b != 0 {
		t.Errorf("E13: engine match path reports %v B/op, want 0", b)
	}
	// Both evaluate rows must be present with sane positive timings.
	for _, name := range []string{"core evaluate: serial engine", "core evaluate: parallel engine"} {
		if ns := cell(t, tab, findRow(t, tab, name), 2); ns <= 0 {
			t.Errorf("E13 %s: ns/op %v not positive", name, ns)
		}
	}
}

func TestE14Shapes(t *testing.T) {
	// 8192 tuples, 4 clients: big enough to engage the parallel scan and
	// genuine concurrency, small enough for a test. Absolute timings are
	// machine noise; the asserted shape is the ordering the cache must
	// produce (cached ≪ uncached, delta ≪ full rescan, engine median
	// below PR 1 median) with a noise margin, plus the internal correctness gate
	// (RunE14 errors if cached results diverge from EvaluateSerial or the
	// delta path is never taken).
	tab, err := RunE14(8192, 4, 14)
	if err != nil {
		t.Fatal(err)
	}
	uncached := cell(t, tab, findRow(t, tab, "hot query: PR 1 (uncached full scan)"), 2)
	cached := cell(t, tab, findRow(t, tab, "hot query: engine (cached)"), 2)
	if cached <= 0 || uncached <= 0 {
		t.Fatalf("non-positive timings: uncached %v, cached %v", uncached, cached)
	}
	if cached*2 >= uncached {
		t.Errorf("E14: cached hot query %v ns not well below uncached %v ns", cached, uncached)
	}
	full := cell(t, tab, findRow(t, tab, "append+requery: PR 1 (full rescan)"), 2)
	delta := cell(t, tab, findRow(t, tab, "append+requery: engine (delta scan)"), 2)
	if delta*2 >= full {
		t.Errorf("E14: delta requery %v ns not well below full rescan %v ns", delta, full)
	}
	// The ordering is asserted on the medians: a p99 comes from only ~64
	// wall-clock samples per side, so on a loaded CI box one scheduler
	// stall on the engine side reverses it (the report, not this test,
	// carries the p99 rows and the headline number).
	before := cell(t, tab, findRow(t, tab, "4-client p50: PR 1 (uncached, oversubscribed)"), 2)
	after := cell(t, tab, findRow(t, tab, "4-client p50: engine (cache + budget)"), 2)
	if after >= before {
		t.Errorf("E14: engine median %v ns not below PR 1 median %v ns", after, before)
	}
	for _, name := range []string{"4-client p99: PR 1 (uncached, oversubscribed)", "4-client p99: engine (cache + budget)"} {
		if ns := cell(t, tab, findRow(t, tab, name), 2); ns <= 0 {
			t.Errorf("E14 %s: %v ns not positive", name, ns)
		}
	}
}

// findRowBy locates the first row matching every given (column, value)
// pair — E15 rows repeat the path name across writer counts.
func findRowBy(t *testing.T, tab *Table, want map[int]string) int {
	t.Helper()
	for i, r := range tab.Rows {
		ok := true
		for col, v := range want {
			if r[col] != v {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	t.Fatalf("%s: no row matching %v", tab.ID, want)
	return -1
}

func TestE15Shapes(t *testing.T) {
	// 4 writers, 20 appends each: enough concurrency to engage group
	// commit, small enough for a test. Absolute numbers are disk noise;
	// the asserted shape is (a) every row present with positive
	// throughput, (b) group commit at least matching the naive
	// fsync-per-record baseline it replaces at equal writers and equal
	// durability, and (c) fsync sharing actually recorded. RunE15 also
	// self-gates: it errors if an acknowledged append is lost across a
	// simulated crash.
	tab, err := RunE15(4, 20, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"naive fsync-per-record", "wal always", "wal interval", "wal never"} {
		for _, writers := range []string{"1", "4"} {
			row := findRowBy(t, tab, map[int]string{0: path, 1: writers})
			if ops := cell(t, tab, row, 2); ops <= 0 {
				t.Errorf("E15 %s/%s writers: non-positive throughput %v", path, writers, ops)
			}
			if p99 := cell(t, tab, row, 3); p99 < 0 {
				t.Errorf("E15 %s/%s writers: negative p99 %v", path, writers, p99)
			}
		}
	}
	// Wall-clock comparison with a generous noise floor: v9fs fsync
	// latency on a shared box is jittery and worst-case scheduling gives
	// group commit no overlap to share, so only a collapse well below
	// the baseline (not mere jitter) fails; the headline ratio lives in
	// the report notes, not here.
	naive := cell(t, tab, findRowBy(t, tab, map[int]string{0: "naive fsync-per-record", 1: "4"}), 2)
	grouped := cell(t, tab, findRowBy(t, tab, map[int]string{0: "wal always", 1: "4"}), 2)
	if grouped < naive/2 {
		t.Errorf("E15: 4-writer group commit (%v appends/s) collapsed below half the naive fsync-per-record baseline (%v appends/s)", grouped, naive)
	}
	if shared := cell(t, tab, findRowBy(t, tab, map[int]string{0: "wal always", 1: "4"}), 4); shared < 1 {
		t.Errorf("E15: group commit records/fsync %v, want >= 1", shared)
	}
}

func TestE17Shapes(t *testing.T) {
	// RunE17 self-gates hard: it errors unless the pushdown answers are
	// byte-identical to the client-side intersection AND the plaintext
	// reference, and unless both the bytes-over-wire and the end-to-end
	// latency improvements reach 5x. The shape asserted here is just
	// that both rows exist with positive, sane cells.
	tab, err := RunE17(10000, 17)
	if err != nil {
		t.Fatal(err)
	}
	clientSide := findRow(t, tab, "client-side: SelectMany + Intersect")
	push := findRow(t, tab, "pushdown: one-plan planner")
	for _, row := range []int{clientSide, push} {
		if ns := cell(t, tab, row, 2); ns <= 0 {
			t.Errorf("E17 row %d: non-positive ns/op %v", row, ns)
		}
		if by := cell(t, tab, row, 3); by <= 0 {
			t.Errorf("E17 row %d: non-positive bytes/op %v", row, by)
		}
	}
	if cell(t, tab, clientSide, 3) <= cell(t, tab, push, 3) {
		t.Error("E17: client-side path should move more bytes than pushdown")
	}
}

func TestE18Shapes(t *testing.T) {
	// RunE18 self-gates hard: it errors unless every routed read is a
	// plaintext-correct follower read, and unless both the
	// kill-a-replica and Byzantine-replica drills end with answers
	// bit-identical to the primary's. The shape asserted here is the
	// counts each row reports (columns: reads, replica reads, primary
	// reads, failovers, replica failures).
	tab, err := RunE18(1000, 18)
	if err != nil {
		t.Fatal(err)
	}
	routed := findRow(t, tab, "primary + 2 followers")
	if reads := cell(t, tab, routed, 1); reads != e18Reads || cell(t, tab, routed, 2) != reads || cell(t, tab, routed, 3) != 0 {
		t.Errorf("E18 routing row %v: want %d reads, all from replicas", tab.Rows[routed], e18Reads)
	}
	if kill := findRow(t, tab, "kill-a-replica drill"); cell(t, tab, kill, 2) == 0 || cell(t, tab, kill, 4) == 0 {
		t.Errorf("E18 kill drill row %v: want replica reads before the kill and failovers after", tab.Rows[kill])
	}
	if byz := findRow(t, tab, "Byzantine replica drill"); cell(t, tab, byz, 2) != 0 || cell(t, tab, byz, 5) == 0 {
		t.Errorf("E18 Byzantine drill row %v: want no replica read accepted and a replica failure", tab.Rows[byz])
	}
}

func TestE20Shapes(t *testing.T) {
	// RunE20 self-gates hard: it errors unless the sharded answers are
	// bit-identical to the oracle's (and plaintext), and unless both
	// halves of the Byzantine-shard drill land (tampered follower
	// quarantined with reads still serving; tampered primary failing the
	// whole read). The shape asserted here is the counts each row reports
	// (columns: sharded reads, oracle-identical, refused, replica
	// failures).
	tab, err := RunE20(1000, 20)
	if err != nil {
		t.Fatal(err)
	}
	sweep := findRow(t, tab, "equivalence sweep")
	if reads := cell(t, tab, sweep, 1); reads != e20Codes || cell(t, tab, sweep, 2) != reads {
		t.Errorf("E20 sweep row %v: want %d oracle-identical reads", tab.Rows[sweep], e20Codes)
	}
	if fol := findRow(t, tab, "Byzantine-follower drill"); cell(t, tab, fol, 2) != cell(t, tab, fol, 1) || cell(t, tab, fol, 4) == 0 {
		t.Errorf("E20 follower drill row %v: want every read oracle-identical and the tampered follower rejected", tab.Rows[fol])
	}
	if prim := findRow(t, tab, "Byzantine-primary drill"); cell(t, tab, prim, 3) != 1 {
		t.Errorf("E20 primary drill row %v: want the tampered read refused", tab.Rows[prim])
	}
}

func TestTableJSON(t *testing.T) {
	tab := &Table{ID: "EX", Title: "t", Header: []string{"a"}, Notes: []string{"n"}}
	tab.AddRow("1")
	var sb strings.Builder
	if err := tab.JSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ID": "EX"`, `"Rows"`, `"1"`, `"n"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("JSON output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestFactoryUnknown(t *testing.T) {
	if _, err := Factory("nope"); err == nil {
		t.Fatal("unknown scheme factory created")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "EX",
		Title:  "test",
		Header: []string{"a", "b"},
		Notes:  []string{"note"},
	}
	tab.AddRow("1", "2")
	var sb1, sb2 strings.Builder
	tab.Fprint(&sb1)
	tab.Markdown(&sb2)
	for _, out := range []string{sb1.String(), sb2.String()} {
		for _, want := range []string{"EX", "test", "a", "1", "note"} {
			if !strings.Contains(out, want) {
				t.Errorf("rendering missing %q:\n%s", want, out)
			}
		}
	}
}
