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
	for len(tuples) > 0 {
		n := runLen(tuples)
		t := tuples[0]
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = binary.AppendUvarint(dst, uint64(len(t.ID)))
		dst = binary.AppendUvarint(dst, uint64(len(t.Blob)))
		dst = binary.AppendUvarint(dst, uint64(len(t.Words)))
		for _, w := range t.Words {
			dst = binary.AppendUvarint(dst, uint64(len(w)))
		}
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
	for len(tuples) > 0 {
		n := runLen(tuples)
		t := tuples[0]
		size += uvarintLen(n) + uvarintLen(len(t.ID)) + uvarintLen(len(t.Blob)) + uvarintLen(len(t.Words))
		for _, w := range t.Words {
			size += uvarintLen(len(w))
		}
		size += n * stride(t)
		tuples = tuples[n:]
	}
	return size
}

// runLen is how many tuples, from the first, one run carries: every one
// of the first's shape, or the first alone when it is shorter than its
// word count plus one (a run holds a byte per tuple and per word).
func runLen(tuples []ph.EncryptedTuple) int {
	t := tuples[0]
	if stride(t) <= len(t.Words) {
		return 1
	}
	n := 1
	for n < len(tuples) && sameShape(t, tuples[n]) {
		n++
	}
	return n
}

// stride is a tuple's length in a run: its ID, blob and words.
func stride(t ph.EncryptedTuple) int {
	n := len(t.ID) + len(t.Blob)
	for _, w := range t.Words {
		n += len(w)
	}
	return n
}

// sameShape reports whether two tuples' IDs, blobs and words have the
// same lengths.
func sameShape(a, b ph.EncryptedTuple) bool {
	if len(a.ID) != len(b.ID) || len(a.Blob) != len(b.Blob) || len(a.Words) != len(b.Words) {
		return false
	}
	for i, w := range a.Words {
		if len(w) != len(b.Words[i]) {
			return false
		}
	}
	return true
}

// uvarintLen is the length of v's uvarint encoding: 7 bits a byte.
func uvarintLen(v int) int { return (bits.Len(uint(v)|1) + 6) / 7 }

// decodeTuples parses the runs of a list of n tuples in two walks of one
// loop. The first validates every run header against the payload and
// measures the list, so a hostile count or length fails before anything
// is allocated; the second copies each run's body into one allocation
// with one copy and cuts its tuples out at the stride, and their word
// headers out of a second. Every slice handed out is a three-index
// slice of those two, so an append to one tuple's ID or Words can never
// write into its neighbour's, and none aliases the payload
// (ReadFrameReuse's contract).
func decodeTuples(r *Buffer, n uint32) ([]ph.EncryptedTuple, error) {
	start := r.off
	size, words, err := walkRuns(r, n, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	// The walk found n tuples and their words at a byte each at least
	// in the payload, so n, size and words are all bounded by its length.
	tuples := make([]ph.EncryptedTuple, n)
	r.off = start
	if _, _, err := walkRuns(r, n, tuples, make([]byte, size), make([][]byte, words)); err != nil {
		return nil, err
	}
	return tuples, nil
}

// walkRuns reads the runs of n tuples from r. With tuples nil it only
// validates them and returns the bytes their bodies hold and their
// total word count; otherwise it also fills tuples, copying the bodies
// into region and cutting the word lists out of words, which a
// measuring walk over the same bytes sized.
func walkRuns(r *Buffer, n uint32, tuples []ph.EncryptedTuple, region []byte, words [][]byte) (size, nwords int, err error) {
	for done := 0; done < int(n); {
		h, err := r.runHeader(int(n) - done)
		if err != nil {
			return 0, 0, fmt.Errorf("wire: tuple %d: %w", done, err)
		}
		body := r.b[r.off : r.off+h.n*h.stride]
		r.off += len(body)
		if tuples != nil {
			copy(region[size:], body)
			h.cut(tuples[done:done+h.n], region[size:size+len(body)], words[nwords:nwords+h.n*h.k])
		}
		size += len(body)
		nwords += h.n * h.k
		done += h.n
	}
	return size, nwords, nil
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
	t := &ph.EncryptedTable{}
	var err error
	if t.SchemeID, err = r.String(); err != nil {
		return nil, fmt.Errorf("wire: table scheme id: %w", err)
	}
	if t.Meta, err = r.Bytes(); err != nil {
		return nil, fmt.Errorf("wire: table meta: %w", err)
	}
	n, err := r.U32()
	if err != nil {
		return nil, fmt.Errorf("wire: table tuple count: %w", err)
	}
	if t.Tuples, err = decodeTuples(r, n); err != nil {
		return nil, fmt.Errorf("wire: table: %w", err)
	}
	return t, nil
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
	r := NewBuffer(payload)
	name, err := r.String()
	if err != nil {
		return "", nil, fmt.Errorf("wire: insert table name: %w", err)
	}
	n, err := r.U32()
	if err != nil {
		return "", nil, fmt.Errorf("wire: insert tuple count: %w", err)
	}
	tuples, err := decodeTuples(r, n)
	if err != nil {
		return "", nil, fmt.Errorf("wire: insert: %w", err)
	}
	return name, tuples, r.Err()
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
