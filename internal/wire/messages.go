package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ph"
)

// A tuple list — the body of every message and log record that carries
// encrypted tuples — is count:u32 followed by runs. A run is tuples of
// one shape, the shape said once:
//
//	n | idLen | blobLen | k | wordLen × k    (uvarints)
//	n × stride bytes                         (stride = idLen + blobLen + Σ wordLen)
//
// each tuple's ID, blob and words back to back. The paper's SWP tuples
// all share one shape (a 16-byte document ID and one word of the same
// length per attribute), so a served table's list is one run. A run
// must hold at least one byte per tuple and per word, header included:
// that keeps what a decoder allocates within a constant multiple of the
// payload whatever the counts say, so the encoder gives a tuple shorter
// than its word count plus one a run of its own. A run of 0 tuples is
// refused: it is also how the old per-tuple-prefixed format (a u32
// length whose high byte is 0) reads, so such bytes fail rather than
// decode as something else.

// appendTuples appends a tuple list: count, then runs.
func appendTuples(dst []byte, tuples []ph.EncryptedTuple) []byte {
	dst = AppendU32(dst, uint32(len(tuples)))
	var lens [16]int
	for len(tuples) > 0 {
		sh, n := runLen(tuples, lens[:])
		dst = appendRunHeader(dst, n, sh)
		for _, t := range tuples[:n] {
			dst = append(dst, t.ID...)
			dst = append(dst, t.Blob...)
			for _, w := range t.Words {
				dst = append(dst, w...)
			}
		}
		tuples = tuples[n:]
	}
	return dst
}

// tuplesLen is the length appendTuples appends.
func tuplesLen(tuples []ph.EncryptedTuple) int {
	size := 4
	var lens [16]int
	for len(tuples) > 0 {
		sh, n := runLen(tuples, lens[:])
		size += runHeaderLen(n, sh) + n*sh.Stride()
		tuples = tuples[n:]
	}
	return size
}

// runLen returns the shape of the first tuple, its word lengths in
// lens, and how many tuples from the first one run carries: every one of
// that shape, up to runOf's bound.
func runLen(tuples []ph.EncryptedTuple, lens []int) (ph.Shape, int) {
	sh := ph.ShapeOf(tuples[0], lens)
	n, most := 1, runOf(len(tuples), sh)
	for n < most && sh.Fits(tuples[n]) {
		n++
	}
	return sh, n
}

// runOf is how many of n tuples of shape sh one run may carry: all of
// them, or one when a tuple is no longer than its word count (a run
// holds a byte per tuple and per word). It is the encoders' one rule for
// cutting runs.
func runOf(n int, sh ph.Shape) int {
	if sh.Stride() <= len(sh.Words) {
		return 1
	}
	return n
}

// appendRunHeader appends the header of a run of n tuples of shape sh.
func appendRunHeader(dst []byte, n int, sh ph.Shape) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(sh.ID))
	dst = binary.AppendUvarint(dst, uint64(sh.Blob))
	dst = binary.AppendUvarint(dst, uint64(len(sh.Words)))
	for _, l := range sh.Words {
		dst = binary.AppendUvarint(dst, uint64(l))
	}
	return dst
}

// runHeaderLen is the length appendRunHeader appends.
func runHeaderLen(n int, sh ph.Shape) int {
	size := uvarintLen(n) + uvarintLen(sh.ID) + uvarintLen(sh.Blob) + uvarintLen(len(sh.Words))
	for _, l := range sh.Words {
		size += uvarintLen(l)
	}
	return size
}

// uvarintLen is the length of v's uvarint encoding: 7 bits a byte.
func uvarintLen(v int) int { return (bits.Len(uint(v)|1) + 6) / 7 }

// decodeTuples parses the runs of a list of n tuples.
func decodeTuples(r *Buffer, n uint32) ([]ph.EncryptedTuple, error) {
	ts, err := r.readRuns(n)
	if err != nil {
		return nil, err
	}
	return ts.tuples(), nil
}

// tuples decodes the list: each run's body is copied into one
// allocation and its tuples cut out at the stride, their word headers
// out of a second. readRuns found n tuples and their words at a byte
// each at least in the payload, so what this allocates is bounded by its
// length. Every slice handed out is a three-index slice of those two, so
// an append to one tuple's ID or Words can never write into its
// neighbour's, and none aliases the payload (ReadFrameReuse's contract).
func (ts Runs) tuples() []ph.EncryptedTuple {
	tuples := make([]ph.EncryptedTuple, ts.n)
	region, words := make([]byte, 0, ts.size), make([][]byte, ts.words)
	done, w := 0, 0
	ts.each(func(h run, body []byte) {
		region = append(region, body...)
		h.cut(tuples[done:done+h.n], region[len(region)-len(body):], words[w:w+h.n*h.k])
		done, w = done+h.n, w+h.n*h.k
	})
	return tuples
}

// Runs is a tuple list whose runs a decoder has validated, as a view of
// the payload it was read from: it is valid only while the payload is.
type Runs struct {
	n, size, words int // tuples, body bytes, words
	b              []byte
}

// Len is the list's tuple count.
func (ts Runs) Len() int { return ts.n }

// readRuns validates the runs of a list of n tuples against the payload
// and returns them, measured: a hostile count or length fails before
// anything is allocated.
func (r *Buffer) readRuns(n uint32) (Runs, error) {
	ts := Runs{n: int(n)}
	start := r.off
	for done := 0; done < ts.n; {
		h, err := r.runHeader(ts.n - done)
		if err != nil {
			return Runs{}, fmt.Errorf("wire: tuple %d: %w", done, err)
		}
		r.off += h.n * h.stride
		ts.size += h.n * h.stride
		ts.words += h.n * h.k
		done += h.n
	}
	ts.b = r.b[start:r.off]
	return ts, nil
}

// each calls fn on every run of the list with its body.
func (ts Runs) each(fn func(h run, body []byte)) {
	r := NewBuffer(ts.b)
	for done := 0; done < ts.n; {
		h, _ := r.runHeader(ts.n - done) // readRuns validated it
		fn(h, r.b[r.off:r.off+h.n*h.stride])
		r.off += h.n * h.stride
		done += h.n
	}
}

// AppendTo copies the list's tuples onto the end of s, straight from the
// payload, run by run (ph.Slab.AppendRun).
func (ts Runs) AppendTo(s *ph.Slab) {
	var lens [16]int
	ts.each(func(h run, body []byte) { s.AppendRun(h.shape(lens[:]), h.n, body) })
}

// run is one run's header: its tuple count and the shape they share.
type run struct {
	n, id, blob, k, stride int
	// lens is the k word lengths, still uvarints in the payload.
	lens []byte
}

// runHeader reads and validates a run header of at most left tuples:
// every length fits the payload, the body is there, and the run holds a
// byte per tuple and per word.
func (r *Buffer) runHeader(left int) (run, error) {
	start := r.off
	var h run
	n, err := r.uvarint()
	if err != nil {
		return h, fmt.Errorf("run length: %w", err)
	}
	if n == 0 {
		return h, fmt.Errorf("run of 0 tuples, not a tuple format this build knows")
	}
	if n > uint64(left) {
		return h, fmt.Errorf("run of %d tuples past the %d the list has left", n, left)
	}
	h.n = int(n)
	id, err := r.length(0)
	if err != nil {
		return h, fmt.Errorf("id: %w", err)
	}
	blob, err := r.length(id)
	if err != nil {
		return h, fmt.Errorf("blob: %w", err)
	}
	h.id, h.blob = int(id), int(blob)
	stride := id + blob
	k, err := r.uvarint()
	if err != nil {
		return h, fmt.Errorf("run word count: %w", err)
	}
	// A word length is at least one byte of header.
	if k > uint64(r.Remaining()) {
		return h, fmt.Errorf("run word count %d exceeds remaining payload", k)
	}
	h.k = int(k)
	lens := r.off
	for j := 0; j < h.k; j++ {
		l, err := r.length(stride)
		if err != nil {
			return h, fmt.Errorf("word %d: %w", j, err)
		}
		stride += l
	}
	h.lens, h.stride = r.b[lens:r.off], int(stride)
	if stride > 0 && n > uint64(r.Remaining())/stride {
		return h, fmt.Errorf("run of %d tuples of %d bytes exceeds remaining payload %d", n, stride, r.Remaining())
	}
	if runBytes := uint64(r.off-start) + n*stride; n > runBytes/(k+1) {
		return h, fmt.Errorf("run of %d tuples of %d words in %d bytes", n, k, runBytes)
	}
	return h, nil
}

// length reads one length of a run's shape, which with the stride so
// far must fit the remaining payload.
func (r *Buffer) length(stride uint64) (uint64, error) {
	l, err := r.uvarint()
	if err != nil {
		return 0, fmt.Errorf("run shape: %w", err)
	}
	if l > uint64(r.Remaining()) || stride+l > uint64(r.Remaining()) {
		return 0, fmt.Errorf("run shape length %d exceeds remaining payload %d", l, r.Remaining())
	}
	return l, nil
}

// cut fills the run's tuples from body, a copy of its bytes, and words,
// their word headers. A blob of no bytes stays nil, as core writes it.
func (h run) cut(tuples []ph.EncryptedTuple, body []byte, words [][]byte) {
	for j := range tuples {
		b := body[j*h.stride : (j+1)*h.stride]
		tuples[j] = ph.EncryptedTuple{
			ID:    b[:h.id:h.id],
			Words: words[j*h.k : (j+1)*h.k : (j+1)*h.k],
		}
		if h.blob > 0 {
			tuples[j].Blob = b[h.id : h.id+h.blob : h.id+h.blob]
		}
	}
	off, lens := h.id+h.blob, h.lens
	for w := 0; w < h.k; w++ {
		l, m := binary.Uvarint(lens)
		lens = lens[m:]
		for j := range tuples {
			at := j*h.stride + off
			tuples[j].Words[w] = body[at : at+int(l) : at+int(l)]
		}
		off += int(l)
	}
}

// EncodeTable serialises an encrypted table. It grows dst once, to the
// encoding's exact size: a bulk load is megabytes, and growing by appends
// would copy it about twice over.
func EncodeTable(dst []byte, t *ph.EncryptedTable) []byte {
	dst = slices.Grow(dst, 8+len(t.SchemeID)+len(t.Meta)+tuplesLen(t.Tuples))
	dst = AppendString(dst, t.SchemeID)
	dst = AppendBytes(dst, t.Meta)
	return appendTuples(dst, t.Tuples)
}

// DecodeTable parses an encrypted table from the buffer.
func DecodeTable(r *Buffer) (*ph.EncryptedTable, error) {
	s, ts, err := r.table()
	if err != nil {
		return nil, err
	}
	return &ph.EncryptedTable{SchemeID: s.SchemeID, Meta: s.Meta, Tuples: ts.tuples()}, nil
}

// table reads a table's scheme ID and meta into an empty slab and
// validates its runs.
func (r *Buffer) table() (*ph.Slab, Runs, error) {
	s := &ph.Slab{}
	var err error
	if s.SchemeID, err = r.String(); err != nil {
		return nil, Runs{}, fmt.Errorf("wire: table scheme id: %w", err)
	}
	if s.Meta, err = r.Bytes(); err != nil {
		return nil, Runs{}, fmt.Errorf("wire: table meta: %w", err)
	}
	n, err := r.U32()
	if err != nil {
		return nil, Runs{}, fmt.Errorf("wire: table tuple count: %w", err)
	}
	ts, err := r.readRuns(n)
	if err != nil {
		return nil, Runs{}, fmt.Errorf("wire: table: %w", err)
	}
	return s, ts, nil
}

// DecodeName parses a payload that is exactly one table name (CmdFetchAll,
// CmdDrop, the storage log's drop record).
func DecodeName(payload []byte) (string, error) {
	r := NewBuffer(payload)
	name, err := r.String()
	if err != nil {
		return "", fmt.Errorf("wire: table name: %w", err)
	}
	return name, r.Err()
}

// DecodeStore parses a payload that is exactly name | table (CmdStore,
// the storage log's store record).
func DecodeStore(payload []byte) (string, *ph.EncryptedTable, error) {
	r := NewBuffer(payload)
	name, err := r.String()
	if err != nil {
		return "", nil, fmt.Errorf("wire: store table name: %w", err)
	}
	t, err := DecodeTable(r)
	if err != nil {
		return "", nil, err
	}
	return name, t, r.Err()
}

// EncodeInsert serialises the insert payload shared by CmdInsert and the
// storage log's insert record: name | count:u32 | tuples.
func EncodeInsert(dst []byte, name string, tuples []ph.EncryptedTuple) []byte {
	dst = AppendString(dst, name)
	return appendTuples(dst, tuples)
}

// DecodeInsert parses an insert payload, which must hold nothing else.
func DecodeInsert(payload []byte) (string, []ph.EncryptedTuple, error) {
	name, ts, err := DecodeInsertRuns(payload)
	if err != nil {
		return "", nil, err
	}
	return name, ts.tuples(), nil
}

// shape is the run's shape, its word lengths in lens when it has the
// room.
func (h run) shape(lens []int) ph.Shape {
	sh := ph.Shape{ID: h.id, Blob: h.blob, Words: lens[:0]}
	for b := h.lens; len(b) > 0; {
		l, m := binary.Uvarint(b)
		sh.Words = append(sh.Words, int(l))
		b = b[m:]
	}
	return sh
}

// DecodeInsertRuns parses an insert payload, which must hold nothing
// else, validating its runs without decoding a tuple: the runs are a
// view of payload.
func DecodeInsertRuns(payload []byte) (string, Runs, error) {
	r := NewBuffer(payload)
	name, err := r.String()
	if err != nil {
		return "", Runs{}, fmt.Errorf("wire: insert table name: %w", err)
	}
	n, err := r.U32()
	if err != nil {
		return "", Runs{}, fmt.Errorf("wire: insert tuple count: %w", err)
	}
	ts, err := r.readRuns(n)
	if err != nil {
		return "", Runs{}, fmt.Errorf("wire: insert: %w", err)
	}
	return name, ts, r.Err()
}

// DecodeStoreSlab parses a payload that is exactly name | table into a
// fresh slab: every run is validated before any is copied, then each
// run's bytes are copied once, into the slab.
func DecodeStoreSlab(payload []byte) (string, *ph.Slab, error) {
	r := NewBuffer(payload)
	name, err := r.String()
	if err != nil {
		return "", nil, fmt.Errorf("wire: store table name: %w", err)
	}
	s, ts, err := r.table()
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		return "", nil, err
	}
	ts.AppendTo(s)
	return name, s, nil
}

// EncodeSlab serialises a slab as an encrypted table: the bytes
// EncodeTable writes for the table it holds. It grows dst once, to the
// encoding's exact size.
func EncodeSlab(dst []byte, s *ph.Slab) []byte {
	size := 8 + len(s.SchemeID) + len(s.Meta)
	eachPiece(s, 0, s.Len(), func(r *ph.Run, _, n int) { size += runHeaderLen(n, r.Shape) + n*r.Stride })
	dst = slices.Grow(dst, size)
	dst = AppendString(dst, s.SchemeID)
	dst = AppendBytes(dst, s.Meta)
	return AppendSlab(dst, s, 0, s.Len())
}

// AppendSlab appends the tuple list of the slab's tuples at positions
// [lo, hi): the bytes appendTuples writes for those tuples.
func AppendSlab(dst []byte, s *ph.Slab, lo, hi int) []byte {
	dst = AppendU32(dst, uint32(hi-lo))
	eachPiece(s, lo, hi, func(r *ph.Run, at, n int) {
		dst = appendRunHeader(dst, n, r.Shape)
		dst = append(dst, r.Body[at*r.Stride:(at+n)*r.Stride]...)
	})
	return dst
}

// eachPiece calls fn on each wire run of the slab's tuples at positions
// [lo, hi): n tuples of run r from its tuple at on, a piece of r as
// runOf cuts it.
func eachPiece(s *ph.Slab, lo, hi int, fn func(r *ph.Run, at, n int)) {
	for lo < hi {
		r := s.Run(lo)
		n := runOf(min(hi, r.Start+r.N)-lo, r.Shape)
		fn(r, lo-r.Start, n)
		lo += n
	}
}

// EncodeQuery serialises an encrypted query.
func EncodeQuery(dst []byte, q *ph.EncryptedQuery) []byte {
	dst = AppendString(dst, q.SchemeID)
	return AppendBytes(dst, q.Token)
}

// DecodeQuery parses an encrypted query from the buffer.
func DecodeQuery(r *Buffer) (*ph.EncryptedQuery, error) {
	q := &ph.EncryptedQuery{}
	var err error
	if q.SchemeID, err = r.String(); err != nil {
		return nil, fmt.Errorf("wire: query scheme id: %w", err)
	}
	if q.Token, err = r.Bytes(); err != nil {
		return nil, fmt.Errorf("wire: query token: %w", err)
	}
	return q, nil
}

// EncodeResult serialises a query result.
func EncodeResult(dst []byte, res *ph.Result) []byte {
	dst = AppendU32(dst, uint32(len(res.Positions)))
	for _, p := range res.Positions {
		dst = AppendU32(dst, uint32(p))
	}
	return appendTuples(dst, res.Tuples)
}

// DecodeResult parses a query result from the buffer. Its positions and
// tuples are aligned, so a result that carries more of one than of the
// other is refused.
func DecodeResult(r *Buffer) (*ph.Result, error) {
	res := &ph.Result{}
	np, err := r.U32()
	if err != nil {
		return nil, fmt.Errorf("wire: result position count: %w", err)
	}
	if int(np) > r.Remaining()/4+1 {
		return nil, fmt.Errorf("wire: position count %d exceeds remaining payload", np)
	}
	res.Positions = make([]int, np)
	for i := range res.Positions {
		p, err := r.U32()
		if err != nil {
			return nil, fmt.Errorf("wire: result position %d: %w", i, err)
		}
		res.Positions[i] = int(p)
	}
	nt, err := r.U32()
	if err != nil {
		return nil, fmt.Errorf("wire: result tuple count: %w", err)
	}
	if nt != np {
		return nil, fmt.Errorf("wire: result carries %d positions and %d tuples", np, nt)
	}
	if res.Tuples, err = decodeTuples(r, nt); err != nil {
		return nil, fmt.Errorf("wire: result: %w", err)
	}
	return res, nil
}

// TableInfo is one directory entry in a CmdList response.
type TableInfo struct {
	// Name is the table name.
	Name string
	// SchemeID is the scheme of the stored ciphertext.
	SchemeID string
	// Tuples is the stored tuple count.
	Tuples int
}

// EncodeList serialises a table directory.
func EncodeList(dst []byte, infos []TableInfo) []byte {
	dst = AppendU32(dst, uint32(len(infos)))
	for _, ti := range infos {
		dst = AppendString(dst, ti.Name)
		dst = AppendString(dst, ti.SchemeID)
		dst = AppendU32(dst, uint32(ti.Tuples))
	}
	return dst
}

// DecodeList parses a table directory.
func DecodeList(r *Buffer) ([]TableInfo, error) {
	n, err := r.U32()
	if err != nil {
		return nil, fmt.Errorf("wire: list length: %w", err)
	}
	infos := make([]TableInfo, 0, ClampCount(n, 1024))
	for i := uint32(0); i < n; i++ {
		var ti TableInfo
		if ti.Name, err = r.String(); err != nil {
			return nil, fmt.Errorf("wire: list entry %d name: %w", i, err)
		}
		if ti.SchemeID, err = r.String(); err != nil {
			return nil, fmt.Errorf("wire: list entry %d scheme: %w", i, err)
		}
		c, err := r.U32()
		if err != nil {
			return nil, fmt.Errorf("wire: list entry %d count: %w", i, err)
		}
		ti.Tuples = int(c)
		infos = append(infos, ti)
	}
	return infos, nil
}
