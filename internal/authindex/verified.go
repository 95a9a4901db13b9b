package authindex

import (
	"fmt"

	"repro/internal/ph"
	"repro/internal/wire"
)

// VerifiedResult is the answer to one plan of a verified read
// (wire.ReadFlagVerified): the plan's result together with the inclusion
// proofs, root, leaf count and store version of the *same* table
// snapshot, taken under a single lock acquisition server-side. Because
// everything is cut from one snapshot, proofs always verify against the
// root they travel with — a mutation racing the query cannot separate
// them. The client still decides whether to trust the snapshot by
// comparing Root against its pinned root.
type VerifiedResult struct {
	// Result holds the matching positions and encrypted tuples.
	Result *ph.Result
	// Root is the tree root of the snapshot that produced Result.
	Root []byte
	// Leaves is the snapshot's tuple count (the proof-shape parameter).
	Leaves int
	// Version is the store's monotonic version stamp for the snapshot.
	Version uint64
	// Proofs are inclusion proofs for Result's tuples, aligned with
	// Result.Positions.
	Proofs []Proof
}

// EncodeVerifiedResult serialises a verified result for the wire.
func EncodeVerifiedResult(dst []byte, vr *VerifiedResult) []byte {
	dst = wire.EncodeResult(dst, vr.Result)
	dst = wire.AppendBytes(dst, vr.Root)
	dst = wire.AppendU32(dst, uint32(vr.Leaves))
	dst = wire.AppendU64(dst, vr.Version)
	return EncodeProofs(dst, vr.Proofs)
}

// DecodeVerifiedResult parses a verified result from a wire buffer.
func DecodeVerifiedResult(r *wire.Buffer) (*VerifiedResult, error) {
	res, err := wire.DecodeResult(r)
	if err != nil {
		return nil, fmt.Errorf("authindex: verified result: %w", err)
	}
	root, err := r.Bytes()
	if err != nil {
		return nil, fmt.Errorf("authindex: verified result root: %w", err)
	}
	leaves, err := r.U32()
	if err != nil {
		return nil, fmt.Errorf("authindex: verified result leaf count: %w", err)
	}
	version, err := r.U64()
	if err != nil {
		return nil, fmt.Errorf("authindex: verified result version: %w", err)
	}
	proofs, err := DecodeProofs(r)
	if err != nil {
		return nil, fmt.Errorf("authindex: verified result proofs: %w", err)
	}
	return &VerifiedResult{Result: res, Root: root, Leaves: int(leaves), Version: version, Proofs: proofs}, nil
}
