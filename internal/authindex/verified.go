package authindex

import (
	"fmt"

	"repro/internal/ph"
	"repro/internal/wire"
)

// VerifiedResult is the answer to one plan of a verified read
// (wire.ReadFlagVerified): the plan's result together with the
// multiproof, root, leaf count and store version of the *same* table
// snapshot, taken under a single lock acquisition server-side. Because
// everything is cut from one snapshot, the proof always verifies against
// the tree whose root it travels with — a mutation racing the query
// cannot separate them. The client still decides whether to trust the
// snapshot by comparing Root and Leaves against its pin, and then checks
// the proof against its own cap row of that tree: the multiproof stops
// at the cap level (CapNodes), so it carries no siblings at all on a
// tree of at most CapNodes leaves.
type VerifiedResult struct {
	// Result holds the matching positions and encrypted tuples.
	Result *ph.Result
	// Root is the tree root of the snapshot that produced Result.
	Root []byte
	// Leaves is the snapshot's tuple count (the proof-shape parameter).
	Leaves int
	// Version is the store's monotonic version stamp for the snapshot.
	Version uint64
	// Multiproof is the inclusion proof for Result's tuples at
	// Result.Positions up to the cap level: what the store cuts, the
	// wire carries and the client checks against its cap row.
	Multiproof MultiProof
	// Proofs are per-leaf proofs aligned with Result.Positions. Nothing
	// served fills them and decoding never does; a value that carries
	// them in place of Multiproof (the benchmark ladder's) is folded into
	// one block up to the root on encode — a size measure only, since a
	// served answer's block stops at the cap level.
	Proofs []Proof
}

// EncodeVerifiedResult serialises a verified result for the wire:
// result | root | leaves:u32 | version:u64 | one length-prefixed block of
// raw HashSize-byte siblings. The result's positions are the proof's.
func EncodeVerifiedResult(dst []byte, vr *VerifiedResult) []byte {
	dst = wire.EncodeResult(dst, vr.Result)
	dst = wire.AppendBytes(dst, vr.Root)
	dst = wire.AppendU32(dst, uint32(vr.Leaves))
	dst = wire.AppendU64(dst, vr.Version)
	proof := vr.Multiproof
	if len(vr.Proofs) > 0 {
		proof = foldProofs(vr.Leaves, vr.Proofs)
	}
	return wire.AppendBytes(dst, proof)
}

// DecodeVerifiedResult parses a verified result from a wire buffer. The
// sibling block is refused unless it is whole hashes and no more of them
// than positions × c(leaves), the most any position set can need below
// the cap level.
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
	proof, err := r.Bytes()
	if err != nil {
		return nil, fmt.Errorf("authindex: verified result proof: %w", err)
	}
	level, _ := capLevel(int(leaves), CapNodes)
	if most := len(res.Positions) * level; len(proof)%HashSize != 0 || len(proof)/HashSize > most {
		return nil, fmt.Errorf("authindex: verified result proof of %d bytes: want whole %d-byte hashes, at most %d for %d positions of %d leaves",
			len(proof), HashSize, most, len(res.Positions), leaves)
	}
	return &VerifiedResult{Result: res, Root: root, Leaves: int(leaves), Version: version, Multiproof: proof}, nil
}
