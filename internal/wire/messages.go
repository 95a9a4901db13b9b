package wire

import (
	"fmt"

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
	var t ph.EncryptedTuple
	var err error
	if t.ID, err = r.Bytes(); err != nil {
		return t, fmt.Errorf("wire: tuple id: %w", err)
	}
	if t.Blob, err = r.Bytes(); err != nil {
		return t, fmt.Errorf("wire: tuple blob: %w", err)
	}
	n, err := r.U32()
	if err != nil {
		return t, fmt.Errorf("wire: tuple word count: %w", err)
	}
	if int(n) > r.Remaining() {
		return t, fmt.Errorf("wire: word count %d exceeds remaining payload", n)
	}
	t.Words = make([][]byte, n)
	for i := range t.Words {
		if t.Words[i], err = r.Bytes(); err != nil {
			return t, fmt.Errorf("wire: tuple word %d: %w", i, err)
		}
	}
	return t, nil
}

// EncodeTable serialises an encrypted table.
func EncodeTable(dst []byte, t *ph.EncryptedTable) []byte {
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
	t.Tuples = make([]ph.EncryptedTuple, 0, ClampCount(n, 1024))
	for i := uint32(0); i < n; i++ {
		tp, err := DecodeTuple(r)
		if err != nil {
			return nil, fmt.Errorf("wire: table tuple %d: %w", i, err)
		}
		t.Tuples = append(t.Tuples, tp)
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

// EncodeInsert serialises the insert payload shared by CmdInsert,
// CmdInsertStamped, CmdShardInsert and the storage log's insert record:
// name | count:u32 | tuples.
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
	// A tuple is at least two length-prefixed fields and a word count.
	tuples := make([]ph.EncryptedTuple, 0, ClampCount(n, r.Remaining()/12))
	for i := uint32(0); i < n; i++ {
		tp, err := DecodeTuple(r)
		if err != nil {
			return "", nil, fmt.Errorf("wire: insert tuple %d: %w", i, err)
		}
		tuples = append(tuples, tp)
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

// DecodeResult parses a query result from the buffer.
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
	res.Tuples = make([]ph.EncryptedTuple, 0, ClampCount(nt, 1024))
	for i := uint32(0); i < nt; i++ {
		tp, err := DecodeTuple(r)
		if err != nil {
			return nil, fmt.Errorf("wire: result tuple %d: %w", i, err)
		}
		res.Tuples = append(res.Tuples, tp)
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
