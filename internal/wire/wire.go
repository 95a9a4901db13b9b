// Package wire defines the binary protocol between Alex (the client
// library, internal/client) and Eve (the untrusted server,
// internal/server), plus serialisation of the ph ciphertext types shared
// with the storage log.
//
// Framing: every message is a frame
//
//	length:u32 | type:u8 | payload
//
// where length counts type+payload and is capped at MaxFrameSize. All
// integers are big-endian. Variable-length byte strings inside payloads are
// u32-length-prefixed, except inside a list of encrypted tuples (a table,
// an insert, a result): that is a count and runs of tuples of one shape,
// the shape's lengths said once per run (messages.go). A request payload
// must be consumed exactly: every request decoder ends with Buffer.Err,
// so trailing bytes are a protocol error.
//
// There is one read message. CmdQuery carries a list of plans, each a
// conjunction of one or more encrypted selects, and ReadFlag* bits that
// shape the answer (verified, explain); RespResult answers every plan in
// order. Every command has exactly one answer shape per peer: a store
// answers CmdQuery with RespResult and CmdInsert with RespInserted, and a
// shard coordinator answers the same commands framed per shard
// (RespResultShard, RespInsertedShard). Its codec lives in
// internal/query, next to the planner and above internal/authindex,
// whose types the answers carry; this package holds the pieces it is
// built from (EncodeQuery, EncodeResult) and the mutation payloads
// (EncodeInsert, DecodeStore, DecodeName). A store reads a mutation
// without decoding a tuple: DecodeStoreSlab copies a table's runs into a
// ph.Slab, DecodeInsertRuns validates an insert's runs for the store to
// copy, and EncodeSlab and AppendSlab write a slab's tuples back out as
// the bytes EncodeTable and EncodeInsert write for them.
//
// The protocol deliberately carries only ciphertext-domain objects —
// encrypted tables, encrypted queries, result position sets. The server
// could log every frame and hand the log to an adversary, and that
// adversary would hold exactly the view the paper's Definition 2.1 grants
// Eve.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// MaxFrameSize caps frame payloads (64 MiB) so a corrupt length prefix
// cannot trigger unbounded allocation.
const MaxFrameSize = 64 << 20

// Command and response type bytes.
const (
	// CmdStore uploads a complete encrypted table under a name,
	// replacing any previous table of that name.
	CmdStore byte = 0x01
	// CmdInsert appends encrypted tuples to an existing table. Payload:
	// name | count:u32 | tuples. A store answers RespInserted, a shard
	// coordinator RespInsertedShard.
	CmdInsert byte = 0x02
	// CmdQuery is the one read request: name | flags:u8 (ReadFlag*) |
	// plans:u16 | per plan conjuncts:u16 | queries. A plan is a
	// conjunction of one or more encrypted exact selects — a single
	// select is a one-conjunct plan, a batch is a list of plans — and the
	// server evaluates each plan under one read-locked snapshot of the
	// table through the selectivity-ordered planner (internal/query),
	// which also owns the codec. A store answers RespResult; a shard
	// coordinator scatters the request to every shard and answers
	// RespResultShard, the per-shard sub-answers framed by shard id. The
	// per-shard framing exists for the trust model: each shard keeps its
	// own authenticated index, so a verifying client needs each shard's
	// (result, proofs, root) separately to check it against its pinned
	// root *vector* — a merged answer would have no root to verify
	// against.
	CmdQuery byte = 0x03
	// CmdFetchAll downloads a complete encrypted table: a store answers
	// RespTable, a shard coordinator RespResultShard with each shard's
	// partition, from which a client rebuilds per-shard Merkle caps.
	CmdFetchAll byte = 0x04
	// CmdDrop removes a named table.
	CmdDrop byte = 0x05
	// CmdList enumerates stored tables.
	CmdList byte = 0x06
	// CmdShipLog tails the server's write-ahead log (replication;
	// internal/replica). Payload: epoch:u64 | from:u64 | maxBytes:u32 —
	// the follower's cursor (log epoch and record sequence) plus a byte
	// budget for the answer. The server replies with RespLogChunk:
	// whole log records from the cursor, as its log file holds them. A
	// cursor from a rotated log (epoch mismatch, or a sequence past the
	// log's head) is answered from (currentEpoch, 0) so the follower
	// re-bootstraps instead of silently diverging. The records shipped
	// are ciphertext-domain mutations the follower's client already
	// sent — replication adds nothing to Eve's view.
	CmdShipLog byte = 0x0D
	// CmdShipSnapshot fetches one chunk of an encoded storage snapshot
	// (replication bootstrap; internal/replica). Payload: epoch:u64 |
	// seq:u64 | offset:u64 | maxBytes:u32 — the identity (embedded
	// cursor) of the snapshot the follower is mid-transfer on (zero for
	// a fresh one), the byte offset to resume at, and a budget for the
	// answer. The server replies with RespSnapshotChunk; if it no longer
	// holds the identified snapshot it serves a fresh one from offset 0
	// under the new identity, and the follower restarts reassembly.
	CmdShipSnapshot byte = 0x0E

	// RespOK acknowledges a command with no payload.
	RespOK byte = 0x81
	// RespError carries an error string.
	RespError byte = 0x82
	// RespResult answers CmdQuery: flags:u8 (the request's, echoed) |
	// plans:u16 | one answer per plan in request order — a ph.Result,
	// or with ReadFlagVerified an authindex.VerifiedResult (result |
	// root | leaves:u32 | version:u64 | one length-prefixed block of raw
	// 32-byte sibling hashes — the answer's multiproof, whose positions
	// are the result's, up to the tree's first level of at most
	// authindex.CapNodes nodes, which the client holds: none on a table
	// of at most that many tuples — all cut from the same snapshot, so a
	// mutation racing the request cannot make an honest answer fail), or
	// with ReadFlagExplain the plan summary.
	RespResult byte = 0x83
	// RespTable carries a ph.EncryptedTable.
	RespTable byte = 0x84
	// RespList carries the table directory.
	RespList byte = 0x85
	// RespInserted acknowledges a store's CmdInsert with the append's
	// placement: base tuple index, appended count and the table version
	// installed — exactly what a client needs to advance an
	// authenticated root incrementally (extension).
	RespInserted byte = 0x89
	// RespLogChunk answers CmdShipLog with a slice of the log:
	// epoch:u64 | start:u64 | head:u64 | log (u32-length-prefixed),
	// where log is whole write-ahead-log records exactly as the
	// primary's file holds them — each with the CRC the primary wrote,
	// which the follower checks as it applies. start is the sequence of
	// the first record shipped (0 instead of the requested cursor when
	// the cursor belongs to a rotated log), head is the server's current
	// record count — the follower is caught up when its cursor reaches
	// it.
	RespLogChunk byte = 0x8C
	// RespSnapshotChunk answers CmdShipSnapshot with one byte range of
	// an encoded snapshot: epoch:u64 | seq:u64 | total:u64 | offset:u64
	// | data (u32-length-prefixed). (epoch, seq) identify the snapshot
	// the bytes belong to — offsets from a different identity are void —
	// total is the full encoded length, and the follower has the whole
	// string once offset+len(data) == total. The reassembled bytes are
	// verified as a unit by the installer (storage.InstallSnapshot), so
	// transfer corruption can fail an install but never corrupt one.
	RespSnapshotChunk byte = 0x8D
	// RespResultShard answers a coordinator's CmdQuery or CmdFetchAll
	// with the partition-map version and one sub-answer per shard in
	// strictly ascending shard order: mapVersion:u64 | count:u32 | per
	// shard shard:u32 | kind:u8 | payload (u32-length-prefixed). kind
	// selects the sub-payload codec: a RespResult payload (CmdQuery), or
	// the shard's partition as a ph.EncryptedTable (CmdFetchAll). See
	// internal/shard for the codec.
	RespResultShard byte = 0x8E
	// RespInsertedShard answers a coordinator's CmdInsert with the
	// partition-map version and one placement ack per shard that received
	// tuples, in strictly ascending shard order: mapVersion:u64 |
	// count:u32 | per shard shard:u32 | base:u32 | tuples:u32 |
	// version:u64.
	RespInsertedShard byte = 0x8F
)

// Read request flag bits (CmdQuery). A request carries at most one of
// them.
const (
	// ReadFlagVerified asks for every plan's answer as a verified
	// result: tuples, one multiproof, root, leaf count and version cut from the
	// one snapshot that evaluated the plan.
	ReadFlagVerified byte = 1 << 0
	// ReadFlagExplain asks for every plan's conjunct order, estimates
	// and predicted serving paths without executing anything.
	ReadFlagExplain byte = 1 << 1
)

// Frame is one protocol message.
type Frame struct {
	// Type is the command or response byte.
	Type byte
	// Payload is the message body.
	Payload []byte
}

// WriteFrame writes a frame to w, and flushes w when it is a
// *bufio.Writer.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload)+1 > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds maximum %d", len(f.Payload)+1, MaxFrameSize)
	}
	// The header goes through the writer's own free space when it has
	// some (*bufio.Writer, *bytes.Buffer): a local array would escape
	// through the io.Writer call and cost one heap allocation per frame.
	var hdr []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		hdr = ab.AvailableBuffer()
	}
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(f.Payload)+1))
	hdr = append(hdr, f.Type)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	// Skip the payload write for empty payloads: a zero-byte Write is a
	// no-op on most writers but blocks on rendezvous transports
	// (net.Pipe waits for a reader even for zero bytes), which can
	// deadlock two peers writing empty-payload frames at each other.
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return fmt.Errorf("wire: writing frame payload: %w", err)
		}
	}
	if bw, ok := w.(*bufio.Writer); ok {
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("wire: flushing frame: %w", err)
		}
	}
	return nil
}

// ReadFrame reads one frame from r, allocating a fresh payload.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := ReadFrameReuse(r, nil)
	return f, err
}

// ReadFrameReuse reads one frame from r, decoding the payload into buf
// (grown as needed) instead of a fresh allocation. It returns the frame
// and the possibly-grown buffer for the next call; the frame's payload
// aliases that buffer, so it is valid only until the buffer is reused,
// and the caller must be done with the raw payload by then. What a
// decoder returns outlives it: decoders copy what they keep — one copy
// per message, never an alias (Buffer.Bytes copies out of the payload,
// a run of tuples is copied into one region of its own, and an answer
// decoder copies the whole payload once, into a NewOwnedBuffer its
// values are views of) — which is what lets a server connection and a
// client.Conn each read every frame into one buffer for their whole
// life. Two decoders hand out views of the frame instead, each for a
// request the server has answered before it reads the next frame:
// DecodeInsertRuns' Runs, which the store copies into the table, and
// DecodeQuery's token, which the read evaluates and hashes but never
// keeps.
func ReadFrameReuse(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The header is read through the reusable buffer too: a local array
	// would escape through the io.Reader interface call and cost one heap
	// allocation per frame.
	if cap(buf) < 5 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:5]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return Frame{}, buf, io.EOF
		}
		return Frame{}, buf, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	f := Frame{Type: hdr[4]}
	if n == 0 {
		return Frame{}, buf, fmt.Errorf("wire: zero-length frame")
	}
	if n > MaxFrameSize {
		return Frame{}, buf, fmt.Errorf("wire: frame of %d bytes exceeds maximum %d", n, MaxFrameSize)
	}
	if n > 1 {
		need := int(n - 1)
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		if _, err := io.ReadFull(r, buf); err != nil {
			return Frame{}, buf, fmt.Errorf("wire: reading frame payload: %w", err)
		}
		f.Payload = buf
	}
	return f, buf, nil
}

// bufPool recycles payload and encode scratch buffers between frames so
// steady-state request handling stops allocating per frame.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// MaxPooledBuf caps what PutBuf will retain: one request with a huge
// frame must not pin tens of megabytes in the pool forever. A server
// connection uses the same threshold to decide whether a grown encode
// buffer is worth keeping.
const MaxPooledBuf = 1 << 20

// MaxKeptBuf bounds the buffers a connection keeps between frames: a
// client.Conn's read and encode buffers and a server connection's read
// buffer. A read answer or an insert batch fits many times over, while
// a table upload or download runs to megabytes: keeping the buffer such
// a frame grew would pin it for the connection's life.
const MaxKeptBuf = 64 << 10

// KeepBuf returns b emptied for reuse, or nil when it has grown past
// MaxKeptBuf.
func KeepBuf(b []byte) []byte {
	if cap(b) > MaxKeptBuf {
		return nil
	}
	return b[:0]
}

// GetBuf returns a zero-length scratch buffer from the frame-buffer pool.
// Grow it with append (or hand it to ReadFrameReuse) and return the grown
// result via PutBuf when done.
func GetBuf() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuf returns a scratch buffer to the pool. Oversized buffers are
// dropped so the pool's footprint stays bounded.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > MaxPooledBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// Buffer is a cursor over a payload for decoding.
type Buffer struct {
	b   []byte
	off int
	// owned marks a payload handed over for good (NewOwnedBuffer): what
	// is decoded from it may be a view of it.
	owned bool
}

// NewBuffer wraps a payload for decoding. Nothing a decoder reads from
// it aliases it (Bytes and tuple lists copy), so the caller may reuse
// the payload once decoding returns.
func NewBuffer(b []byte) *Buffer { return &Buffer{b: b} }

// NewOwnedBuffer wraps a payload that belongs to what is decoded from
// it: a private copy of a message, made once, whose tuple bodies and
// Kept fields the decoded values hold as views — one copy per message
// instead of one per field. The caller must not write to b again.
func NewOwnedBuffer(b []byte) *Buffer { return &Buffer{b: b, owned: true} }

// Remaining returns the number of unread bytes.
func (r *Buffer) Remaining() int { return len(r.b) - r.off }

// Err returns an error unless the buffer is fully consumed.
func (r *Buffer) Err() error {
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes in payload", len(r.b)-r.off)
	}
	return nil
}

// U8 reads one byte.
func (r *Buffer) U8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("wire: truncated payload reading u8")
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

// U16 reads a big-endian uint16.
func (r *Buffer) U16() (uint16, error) {
	if r.off+2 > len(r.b) {
		return 0, fmt.Errorf("wire: truncated payload reading u16")
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

// U32 reads a big-endian uint32.
func (r *Buffer) U32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("wire: truncated payload reading u32")
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

// U64 reads a big-endian uint64.
func (r *Buffer) U64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("wire: truncated payload reading u64")
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// uvarint reads an unsigned varint.
func (r *Buffer) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated or overlong uvarint")
	}
	r.off += n
	return v, nil
}

// View reads a u32-length-prefixed byte string as a view of the
// payload, capped at its own length so that an append to it cannot
// write into the next field. It is valid only while the payload is: a
// decoder hands it out only where the caller has promised to keep the
// payload alive and unchanged for as long as the value is used.
func (r *Buffer) View() ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(r.Remaining()) {
		return nil, fmt.Errorf("wire: byte string of %d exceeds remaining payload %d", n, r.Remaining())
	}
	end := r.off + int(n)
	b := r.b[r.off:end:end]
	r.off = end
	return b, nil
}

// Bytes reads a u32-length-prefixed byte string into a fresh slice:
// nothing a decoder returns may alias the payload.
func (r *Buffer) Bytes() ([]byte, error) {
	b, err := r.View()
	if err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(b)), b...), nil
}

// Kept reads a u32-length-prefixed byte string a decoded value keeps: a
// view of an owned payload (NewOwnedBuffer), a copy of any other.
func (r *Buffer) Kept() ([]byte, error) {
	if r.owned {
		return r.View()
	}
	return r.Bytes()
}

// String reads a u32-length-prefixed string: one copy, the string's own.
func (r *Buffer) String() (string, error) {
	b, err := r.View()
	return string(b), err
}

// AppendU8 appends one byte.
func AppendU8(dst []byte, v byte) []byte { return append(dst, v) }

// AppendU16 appends a big-endian uint16.
func AppendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

// AppendU32 appends a big-endian uint32.
func AppendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

// AppendU64 appends a big-endian uint64.
func AppendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// AppendBytes appends a u32-length-prefixed byte string.
func AppendBytes(dst, v []byte) []byte {
	dst = AppendU32(dst, uint32(len(v)))
	return append(dst, v...)
}

// AppendString appends a u32-length-prefixed string.
func AppendString(dst []byte, v string) []byte {
	dst = AppendU32(dst, uint32(len(v)))
	return append(dst, v...)
}
