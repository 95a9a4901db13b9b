package bench

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/swp"
	"repro/internal/workload"
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
	// SWP m=3, m=4: over 2^21 probes, at most the false hits their
	// checksums produce with probability 1 − 10⁻⁶ — for m = 3 few enough
	// that an m = 2 checksum, 256 times as many, is caught with
	// probability 1 − 10⁻⁶.
	const probes, alpha = 1 << 21, 1e-6
	for _, m := range []int{3, 4} {
		hits, theo, err := SWPFalseHits(m, probes, 5)
		if err != nil {
			t.Fatal(err)
		}
		most := stats.BinomialCritical(probes, theo, alpha) - 1
		if m == 3 {
			if pass := 1 - stats.BinomialTail(probes, 1.0/(1<<16), most+1); pass > alpha {
				t.Fatalf("E5 swp m=3: %d probes cannot gate: an m=2 checksum stays within %d false hits with probability %v", probes, most, pass)
			}
		}
		if hits > most {
			t.Errorf("E5 swp m=%d: %d false hits in %d probes, want at most %d (rate %v)", m, hits, probes, most, theo)
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
	// An SWP tuple is a document ID and one word per column, all of one
	// length, so a table's tuples are one run: the upload is the
	// ciphertext and at most a byte more a tuple, not a length per field.
	schema := workload.EmployeeSchema()
	wordLen, err := core.WordLen(schema)
	if err != nil {
		t.Fatal(err)
	}
	limit := float64(swp.DocIDLen + schema.NumColumns()*wordLen + 1)
	if up := cell(t, tab, findRow(t, tab, core.SchemeID), 1); up > limit {
		t.Errorf("E12 %s upload %v B a tuple, above the ciphertext's %v + 1", core.SchemeID, up, limit-1)
	}
	// Bucketization ships false positives: its per-true-tuple result
	// bytes must exceed detph's (no false positives, same blob format).
	b := cell(t, tab, findRow(t, tab, "bucket"), 4)
	d := cell(t, tab, findRow(t, tab, "detph"), 4)
	if b <= d {
		t.Errorf("E12: bucket result bytes %v not above detph %v (false positives missing?)", b, d)
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
