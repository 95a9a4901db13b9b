package core

import (
	"cmp"
	"fmt"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ph"
	"repro/internal/relation"
	"repro/internal/swp/swptest"
	"repro/internal/workload"
)

// bandTable is the shape of a hot salary-band answer: n unique names,
// departments drawn in turn from workload.Departments, and salaries from
// the given few.
func bandTable(t testing.TB, n int, salaries ...int64) *relation.Table {
	return bandTableOver(t, workload.EmployeeSchema(), n, salaries...)
}

// bandTableOver is bandTable over another schema of the same columns.
func bandTableOver(t testing.TB, schema *relation.Schema, n int, salaries ...int64) *relation.Table {
	t.Helper()
	tab := relation.NewTable(schema)
	for i := 0; i < n; i++ {
		err := tab.Insert(relation.Tuple{
			relation.String(fmt.Sprintf("Emp%05d", i)),
			relation.String(workload.Departments[i%len(workload.Departments)]),
			relation.Int(salaries[i%len(salaries)]),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// refDecrypt decrypts one tuple with swptest's textbook reference — one
// crypto/aes block call at a time, no batch, no memo — under each word
// length's scheme key, as core.New derives it from the master.
func refDecrypt(p *PH, master crypto.Key, etp ph.EncryptedTuple) (relation.Tuple, error) {
	cols := p.layout.schema.NumColumns()
	if len(etp.Words) != cols {
		return nil, fmt.Errorf("document has %d words", len(etp.Words))
	}
	tp := make(relation.Tuple, cols)
	seen := make([]bool, cols)
	for pos, cw := range etp.Words {
		s, ok := p.schemes[len(cw)]
		if !ok {
			return nil, fmt.Errorf("no scheme for word length %d", len(cw))
		}
		sub := crypto.NewPRF(master).DeriveKey(fmt.Sprintf("core/len/%d", len(cw)), nil)
		w, err := swptest.New(sub, len(cw), s.Params().ChecksumLen).DecryptWord(etp.ID, uint64(pos), cw)
		if err != nil {
			return nil, err
		}
		col, v, err := p.layout.parseWord(string(w))
		if err != nil {
			return nil, err
		}
		if seen[col] {
			return nil, fmt.Errorf("column %q twice", p.layout.schema.Columns[col].Name)
		}
		seen[col] = true
		tp[col] = v
	}
	return tp, nil
}

// checkAgainstRef decrypts tuples as a table and as the answer to q and
// compares both, tuple for tuple, with the textbook reference: the same
// tuples, or an error wherever the reference fails, naming what it names.
// Under the reference's error the run must fail too: a tuple the
// reference cannot read is never added. The reference fails in two ways,
// and the table and the answer meet them apart: a tuple it cannot
// decrypt fails both, and a decrypted value wider than its column (a
// flipped bit can make one) fails the table wherever it is, but the
// answer only when the tuple passes q — an answer adds only the tuples
// that do, so a false positive is dropped before it is checked.
func checkAgainstRef(t *testing.T, p *PH, master crypto.Key, q relation.Eq, tuples []ph.EncryptedTuple) {
	t.Helper()
	table := relation.NewTable(p.Schema())
	answer := relation.NewTable(p.Schema())
	var tableErr, answerErr error
	for _, etp := range tuples {
		tp, err := refDecrypt(p, master, etp)
		if err != nil {
			tableErr, answerErr = cmp.Or(tableErr, err), cmp.Or(answerErr, err)
			break
		}
		if tableErr == nil {
			tableErr = table.Insert(tp)
		}
		if ok, err := q.Eval(p.Schema(), tp); err != nil {
			t.Fatal(err)
		} else if ok && answerErr == nil {
			answerErr = answer.Insert(tp)
		}
	}
	gotTable, errTable := p.DecryptTable(&ph.EncryptedTable{SchemeID: SchemeID, Tuples: tuples})
	gotAnswer, errAnswer := p.DecryptResult(q, &ph.Result{Tuples: tuples})
	for _, c := range []struct {
		name        string
		got, want   *relation.Table
		err, refErr error
	}{{"DecryptTable", gotTable, table, errTable, tableErr}, {"DecryptResult", gotAnswer, answer, errAnswer, answerErr}} {
		switch {
		case c.refErr != nil:
			if c.err == nil || !strings.Contains(c.err.Error(), c.refErr.Error()) {
				t.Fatalf("%s: %v, the textbook reference fails with %q", c.name, c.err, c.refErr)
			}
		case c.err != nil:
			t.Fatalf("%s: %v; the reference decrypts", c.name, c.err)
		case !sameTuples(c.got, c.want):
			t.Fatalf("%s decrypted\n%v\nwhere the textbook reference has\n%v", c.name, c.got, c.want)
		}
	}
}

// TestMemoNeverChangesAnAnswer is the differential test of the decryption
// run against the textbook reference: answers of 0 to 300 tuples — the
// empty and one-tuple answers included, and more than swp.RunDocs, so
// they span runs — in both layouts repeat salaries and departments (slot
// hits) and hold up to 300 unique names (more distinct values than memo
// slots, so slots collide and are overwritten); each decrypts exactly as
// the reference does. The wide schema's words have streams of n−m = 40
// bytes in the fixed layout, and of 40, 17 and 5 bytes in the per-column
// one, where each answer's words go to three codecs.
func TestMemoNeverChangesAnAnswer(t *testing.T) {
	wide := relation.MustSchema("emp",
		relation.Column{Name: "name", Type: relation.TypeString, Width: 41},
		relation.Column{Name: "dept", Type: relation.TypeString, Width: 18},
		relation.Column{Name: "salary", Type: relation.TypeInt, Width: 5},
	)
	for _, c := range []struct {
		prefix string
		schema *relation.Schema
	}{{"", workload.EmployeeSchema()}, {"wide/", wide}} {
		for _, perCol := range []bool{false, true} {
			var key crypto.Key
			p, err := New(key, c.schema, Options{PerColumnWidth: perCol})
			if err != nil {
				t.Fatal(err)
			}
			ct, err := p.EncryptTable(bandTableOver(t, c.schema, 300, 7500, 8800, 9100))
			if err != nil {
				t.Fatal(err)
			}
			q := relation.Eq{Column: "dept", Value: relation.String("HR")}
			for _, k := range []int{0, 1, 2, 65, 300} {
				t.Run(fmt.Sprintf("%sperColumn=%v/%d tuples", c.prefix, perCol, k), func(t *testing.T) {
					checkAgainstRef(t, p, key, q, ct.Tuples[:k])
				})
			}
		}
	}
}

// TestMemoTamperedWord: a cipherword whose R part is flipped keeps its
// L_i — and so hits the slot an honest copy of the same value filled
// earlier in the answer — but not its X_i; one whose L part is flipped
// has another L_i, k_i and S_i-masked checksum. Either must come out as
// the textbook reference has it (E⁻¹ of the tampered X_i: an error or
// some other value), never as the memoised plaintext. The same holds when
// the honest copy was decrypted by the previous call on the PH, whose
// pooled codec the tampered answer's call takes over.
func TestMemoTamperedWord(t *testing.T) {
	var key crypto.Key
	p, err := New(key, workload.EmployeeSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := p.EncryptTable(bandTable(t, 40, 7500))
	if err != nil {
		t.Fatal(err)
	}
	q := relation.Eq{Column: "salary", Value: relation.Int(7500)}
	last := len(ct.Tuples) - 1
	for pos := range ct.Tuples[last].Words {
		for _, at := range []int{0, len(ct.Tuples[last].Words[pos]) - 1} { // the first byte is in L_i, the last in R_i
			for _, bit := range []byte{0x01, 0x80} {
				tuples := append([]ph.EncryptedTuple(nil), ct.Tuples...)
				honest := tuples[last]
				tampered := ph.EncryptedTuple{ID: honest.ID, Words: append([][]byte(nil), honest.Words...)}
				cw := append([]byte(nil), honest.Words[pos]...)
				cw[at] ^= bit
				tampered.Words[pos] = cw
				tuples[last] = tampered
				checkAgainstRef(t, p, key, q, tuples)
				if _, err := p.DecryptResult(q, &ph.Result{Tuples: ct.Tuples}); err != nil {
					t.Fatal(err)
				}
				checkAgainstRef(t, p, key, q, []ph.EncryptedTuple{tampered})
			}
		}
	}
}
