// Package checkpoint is the content-addressed identity of a measurement
// cell: CellKey hashes the cell's full identity (scenario × agent ×
// engine × heap spec × scale) and CanonicalPayload fixes the byte form of
// its result. Any two cells with equal keys are interchangeable
// pure-function evaluations, which is what lets the result cache
// (internal/resultcache) serve, deduplicate and crash-resume them.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// CellKey content-addresses a cell: the hex sha256 of the canonical JSON
// encoding of identity. Callers put everything that determines the
// cell's result into identity — scenario workload and checks, agent,
// engine, effective heap spec, scale, run counts — so equal keys imply
// interchangeable results.
func CellKey(identity any) (string, error) {
	b, err := json.Marshal(identity)
	if err != nil {
		return "", fmt.Errorf("checkpoint: hashing cell identity: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// CanonicalPayload is the canonical JSON encoding of a cell payload —
// the byte form the result cache stores. A payload round-trips
// bit-exactly between the cache and an uncached run: encoding/json is
// deterministic for struct-typed values (field order follows
// declaration, float formatting is shortest-round-trip), which is what
// makes byte-level cache verification possible at all.
func CanonicalPayload(payload any) (json.RawMessage, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding payload: %w", err)
	}
	return raw, nil
}
