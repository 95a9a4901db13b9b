package ph

import (
	"slices"
	"sort"
)

// Shape is what every tuple of a run shares: the byte lengths of its ID,
// its blob and each of its words. The paper's construction gives a
// relation one shape — a 16-byte document ID and one cipherword per
// attribute — so a table it encrypted is one run.
type Shape struct {
	ID, Blob int
	Words    []int
}

// Stride is a tuple's length in a run: its ID, blob and words.
func (sh Shape) Stride() int {
	n := sh.ID + sh.Blob
	for _, l := range sh.Words {
		n += l
	}
	return n
}

// Fits reports whether t has shape sh.
func (sh Shape) Fits(t EncryptedTuple) bool {
	if len(t.ID) != sh.ID || len(t.Blob) != sh.Blob || len(t.Words) != len(sh.Words) {
		return false
	}
	for i, w := range t.Words {
		if len(w) != sh.Words[i] {
			return false
		}
	}
	return true
}

// ShapeOf is t's shape, its word lengths in lens when it has the room:
// a caller's array, so that taking a shape need allocate nothing.
func ShapeOf(t EncryptedTuple, lens []int) Shape {
	sh := Shape{ID: len(t.ID), Blob: len(t.Blob), Words: lens[:0]}
	for _, w := range t.Words {
		sh.Words = append(sh.Words, len(w))
	}
	return sh
}

// Run is N tuples of one shape, each one's ID, blob and words back to
// back in Body: the body of a tuple run on the wire and in the log.
type Run struct {
	Shape
	// Stride is Shape.Stride: Body holds N × Stride bytes.
	Stride int
	// Start is the position of the run's first tuple in its slab.
	Start, N int
	Body     []byte
}

// cut returns tuple j of the run as a view of Body, its word headers in
// words, which holds one for each of the run's words: each field capped
// at its own length, so that an append to one cannot write into the
// next. A blob of no bytes is nil, as core writes it and the wire
// decoder hands it out.
func (r *Run) cut(j int, words [][]byte) EncryptedTuple {
	at := j * r.Stride
	t := EncryptedTuple{ID: r.Body[at : at+r.ID : at+r.ID], Words: words}
	if at += r.ID; r.Blob > 0 {
		t.Blob = r.Body[at : at+r.Blob : at+r.Blob]
	}
	at += r.Blob
	for w, l := range r.Words {
		words[w] = r.Body[at : at+l : at+l]
		at += l
	}
	return t
}

// Slab is an encrypted table held as tuple runs: the resident form of
// an EncryptedTable, laid out the way the wire and the log lay a tuple
// list out, with no per-tuple header. Adjacent runs differ in shape:
// tuples appended in the last run's shape grow it, any other shape opens
// a run.
//
// Bytes below a run's N × Stride are never written again, so a view cut
// from a slab — an answer, a Snapshot — stays valid while later appends
// grow it, in place or by reallocation. A slab is not safe for
// concurrent use: its owner orders appends against the reads that cut
// views.
type Slab struct {
	// SchemeID and Meta are the table's, as in EncryptedTable.
	SchemeID string
	Meta     []byte
	// Runs are the tuples, in table order.
	Runs []Run
}

// NewSlab copies an encrypted table into a fresh slab: one allocation
// for each run's bytes.
func NewSlab(t *EncryptedTable) *Slab {
	s := &Slab{SchemeID: t.SchemeID, Meta: slices.Clone(t.Meta)}
	s.AppendTuples(t.Tuples)
	return s
}

// Len is the slab's tuple count.
func (s *Slab) Len() int {
	if r := s.last(); r != nil {
		return r.Start + r.N
	}
	return 0
}

// last is the slab's last run, or nil.
func (s *Slab) last() *Run {
	if len(s.Runs) == 0 {
		return nil
	}
	return &s.Runs[len(s.Runs)-1]
}

// AppendRun copies n tuples of shape sh, whose bytes are body, onto the
// end of the slab.
func (s *Slab) AppendRun(sh Shape, n int, body []byte) {
	r := s.runFor(sh, n)
	r.Body, r.N = append(r.Body, body...), r.N+n
}

// AppendTuples copies tuples onto the end of the slab.
func (s *Slab) AppendTuples(tuples []EncryptedTuple) {
	var lens [16]int
	for len(tuples) > 0 {
		sh := ShapeOf(tuples[0], lens[:])
		n := 1
		for n < len(tuples) && sh.Fits(tuples[n]) {
			n++
		}
		r := s.runFor(sh, n)
		for _, t := range tuples[:n] {
			r.Body = append(r.Body, t.ID...)
			r.Body = append(r.Body, t.Blob...)
			for _, w := range t.Words {
				r.Body = append(r.Body, w...)
			}
		}
		r.N += n
		tuples = tuples[n:]
	}
}

// runFor is the run n tuples of shape sh go on the end of: the last run,
// if it has their shape, or a new one with room for them, which keeps a
// copy of sh.
func (s *Slab) runFor(sh Shape, n int) *Run {
	if r := s.last(); r != nil && r.ID == sh.ID && r.Blob == sh.Blob && slices.Equal(r.Words, sh.Words) {
		return r
	}
	own := Shape{ID: sh.ID, Blob: sh.Blob, Words: slices.Clone(sh.Words)}
	s.Runs = append(s.Runs, Run{Shape: own, Stride: own.Stride(), Start: s.Len(), Body: make([]byte, 0, n*own.Stride())})
	return s.last()
}

// Truncate drops every tuple from position n on: the undo of appends no
// view has seen. Their bytes stay in the last run's capacity, where the
// next append overwrites them.
func (s *Slab) Truncate(n int) {
	for r := s.last(); r != nil && r.Start >= n; r = s.last() {
		*r = Run{}
		s.Runs = s.Runs[:len(s.Runs)-1]
	}
	if r := s.last(); r != nil && r.Start+r.N > n {
		r.N = n - r.Start
		r.Body = r.Body[:r.N*r.Stride]
	}
}

// Snapshot returns a slab that holds the first Len() tuples for good:
// its run headers are copied, its bytes shared. The owner takes it under
// the lock that orders appends and may read it after releasing that
// lock.
func (s *Slab) Snapshot() *Slab {
	return &Slab{SchemeID: s.SchemeID, Meta: s.Meta, Runs: slices.Clone(s.Runs)}
}

// Run returns the run holding position p, which must be in range.
func (s *Slab) Run(p int) *Run {
	i, _ := slices.BinarySearchFunc(s.Runs, p, func(r Run, p int) int {
		switch {
		case p < r.Start:
			return 1
		case p >= r.Start+r.N:
			return -1
		}
		return 0
	})
	return &s.Runs[i]
}

// Tuple returns the tuple at position p as a view of the slab, its word
// headers in words when it has the room.
func (s *Slab) Tuple(p int, words [][]byte) EncryptedTuple {
	r := s.Run(p)
	if cap(words) < len(r.Words) {
		words = make([][]byte, len(r.Words))
	}
	return r.cut(p-r.Start, words[:len(r.Words)])
}

// Answer is the Result of the tuples at positions, ascending and in
// range, as views of the slab: IDs and words are sub-slices of the runs'
// bytes, and every tuple's word headers are cut from one array.
func (s *Slab) Answer(positions []int) *Result {
	res := new(Result)
	s.AnswerInto(res, positions)
	return res
}

// AnswerInto is Answer into a Result the caller allocated, as part of a
// larger answer: two allocations, or none for an empty one.
func (s *Slab) AnswerInto(res *Result, positions []int) {
	*res = Result{Positions: positions, Tuples: make([]EncryptedTuple, len(positions))}
	s.cutAll(res.Tuples, positions)
}

// Table returns a deep copy of the slab as an EncryptedTable: a copy of
// each run's bytes, and one allocation for every word header.
func (s *Slab) Table() *EncryptedTable {
	c := s.Snapshot()
	for i := range c.Runs {
		c.Runs[i].Body = slices.Clone(c.Runs[i].Body)
	}
	return &EncryptedTable{SchemeID: s.SchemeID, Meta: slices.Clone(s.Meta), Tuples: c.tuples()}
}

// tuples returns every tuple of the slab as a view.
func (s *Slab) tuples() []EncryptedTuple {
	tuples := make([]EncryptedTuple, s.Len())
	s.cutAll(tuples, nil)
	return tuples
}

// cutAll fills each tuples[i] with the view of the tuple at position
// positions[i], ascending, or at position i when positions is nil,
// cutting every word header from one array.
func (s *Slab) cutAll(tuples []EncryptedTuple, positions []int) {
	pos := func(i int) int {
		if positions == nil {
			return i
		}
		return positions[i]
	}
	// inRun is how many of the tuples from i on are in r.
	inRun := func(r *Run, i int) int {
		if positions == nil {
			return min(len(tuples), r.Start+r.N) - i
		}
		return sort.SearchInts(positions[i:], r.Start+r.N)
	}
	nwords := 0
	for i := 0; i < len(tuples); {
		r := s.Run(pos(i))
		m := inRun(r, i)
		nwords, i = nwords+m*len(r.Words), i+m
	}
	words := make([][]byte, nwords)
	for i := 0; i < len(tuples); {
		r := s.Run(pos(i))
		k := len(r.Words)
		for end := i + inRun(r, i); i < end; i++ {
			tuples[i] = r.cut(pos(i)-r.Start, words[:k:k])
			words = words[k:]
		}
	}
}
