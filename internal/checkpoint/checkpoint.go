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
	"io"
)

// PayloadFormat versions the byte form of cell payloads; CellKey mixes
// it into every key. Bump it whenever a change moves a payload's
// canonical bytes (a field added, dropped or re-tagged), so a cache
// warmed by an older binary misses instead of failing -cache-verify on
// a byte mismatch. v1 was the unversioned key; v2 dropped the tier's
// per-method rows, op-free count and zero counters from Measurement; v3
// dropped the report's per-thread rows.
const PayloadFormat = "jvmsim-payload-v3"

// CellKey content-addresses a cell: the hex sha256 of PayloadFormat and
// the canonical JSON encoding of identity. Callers put everything that
// determines the cell's result into identity — scenario workload and
// checks, agent, engine, effective heap spec, scale, run counts — so
// equal keys imply interchangeable results.
func CellKey(identity any) (string, error) {
	return cellKey(PayloadFormat, identity)
}

// cellKey hashes format and identity's JSON encoding, which the encoder
// writes straight into the hash.
func cellKey(format string, identity any) (string, error) {
	h := sha256.New()
	io.WriteString(h, format)
	if err := json.NewEncoder(h).Encode(identity); err != nil {
		return "", fmt.Errorf("checkpoint: hashing cell identity: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
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
