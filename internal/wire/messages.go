package wire

import (
	"fmt"
	"slices"

	"repro/internal/ph"
)

// EncodeTuple serialises one encrypted tuple: id, blob, word count, words.
func EncodeTuple(dst []byte, t ph.EncryptedTuple) []byte {
	dst = AppendBytes(dst, t.ID)
	dst = AppendBytes(dst, t.Blob)
	dst = AppendU32(dst, uint32(len(t.Words)))
	for _, w := range t.Words {
		dst = AppendBytes(dst, w)
	}
	return dst
}

// DecodeTuple parses one encrypted tuple from the buffer.
func DecodeTuple(r *Buffer) (ph.EncryptedTuple, error) {
	tuples, err := decodeTuples(r, 1)
	if err != nil {
		return ph.EncryptedTuple{}, err
	}
	return tuples[0], nil
}

// decodeTuples parses a run of n encrypted tuples — the body of every
// message that carries tuples — in two walks of one loop. The first
// validates the whole run against the payload and measures it, so a
// hostile count or length fails before anything is allocated; the second
// copies the run's byte strings, without their length prefixes, into one
// allocation and its word headers into a second. Every slice handed out
// is a three-index slice of those two, so an append to one tuple's ID or
// Words can never write into its neighbour's, and none aliases the
// payload (ReadFrameReuse's contract).
func decodeTuples(r *Buffer, n uint32) ([]ph.EncryptedTuple, error) {
	start := r.off
	size, words, err := walkTuples(r, n, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	// The walk read n tuples of at least 12 bytes each out of the
	// payload, so n, size and words are all bounded by its length.
	tuples := make([]ph.EncryptedTuple, n)
	r.off = start
	if _, _, err := walkTuples(r, n, tuples, make([]byte, size), make([][]byte, words)); err != nil {
		return nil, err
	}
	return tuples, nil
}

// walkTuples reads n encoded tuples from r: id, blob, word count, words.
// With tuples nil it only validates them and returns the bytes their
// strings hold and their total word count; otherwise it also fills
// tuples, carving the strings out of region and the word lists out of
// words, which a measuring walk over the same bytes sized.
func walkTuples(r *Buffer, n uint32, tuples []ph.EncryptedTuple, region []byte, words [][]byte) (size, nwords int, err error) {
	for i := uint32(0); i < n; i++ {
		id, err := r.span()
		if err != nil {
			return 0, 0, fmt.Errorf("wire: tuple %d id: %w", i, err)
		}
		blob, err := r.span()
		if err != nil {
			return 0, 0, fmt.Errorf("wire: tuple %d blob: %w", i, err)
		}
		k, err := r.U32()
		if err != nil {
			return 0, 0, fmt.Errorf("wire: tuple %d word count: %w", i, err)
		}
		// A word is at least its length prefix.
		if int64(k) > int64(r.Remaining()/4) {
			return 0, 0, fmt.Errorf("wire: tuple %d word count %d exceeds remaining payload", i, k)
		}
		var t *ph.EncryptedTuple
		if tuples != nil {
			t = &tuples[i]
			t.ID, size = carve(region, size, id)
			t.Blob, size = carve(region, size, blob)
			t.Words = words[nwords : nwords+int(k) : nwords+int(k)]
		} else {
			size += len(id) + len(blob)
		}
		for j := 0; j < int(k); j++ {
			w, err := r.span()
			if err != nil {
				return 0, 0, fmt.Errorf("wire: tuple %d word %d: %w", i, j, err)
			}
			if t != nil {
				t.Words[j], size = carve(region, size, w)
			} else {
				size += len(w)
			}
		}
		nwords += int(k)
	}
	return size, nwords, nil
}

// carve copies src into region at off and returns the copy, capped at
// its own length, and the offset past it.
func carve(region []byte, off int, src []byte) ([]byte, int) {
	end := off + copy(region[off:], src)
	return region[off:end:end], end
}

// EncodeTable serialises an encrypted table. It grows dst once, to the
// encoding's exact size: a bulk load is megabytes, and growing by appends
// would copy it about twice over.
func EncodeTable(dst []byte, t *ph.EncryptedTable) []byte {
	n := 12 + len(t.SchemeID) + len(t.Meta)
	for _, tp := range t.Tuples {
		n += 12 + len(tp.ID) + len(tp.Blob) + 4*len(tp.Words)
		for _, w := range tp.Words {
			n += len(w)
		}
	}
	dst = slices.Grow(dst, n)
	dst = AppendString(dst, t.SchemeID)
	dst = AppendBytes(dst, t.Meta)
	dst = AppendU32(dst, uint32(len(t.Tuples)))
	for _, tp := range t.Tuples {
		dst = EncodeTuple(dst, tp)
	}
	return dst
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
	dst = AppendU32(dst, uint32(len(tuples)))
	for _, tp := range tuples {
		dst = EncodeTuple(dst, tp)
	}
	return dst
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
	dst = AppendU32(dst, uint32(len(res.Tuples)))
	for _, tp := range res.Tuples {
		dst = EncodeTuple(dst, tp)
	}
	return dst
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
