package obs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
)

// Trace identity. IDs follow the W3C Trace Context sizes (16-byte
// trace id, 8-byte span id) and are DERIVED, never drawn from a global
// randomness source: a trace id is a hash of a caller-chosen seed (the
// job fingerprint, a boot nonce) plus a monotonic counter, and a span
// id is a hash of its trace id plus a per-trace counter. Derivation
// keeps host randomness out of anything a traced run records and lets
// tests pin exact ids; uniqueness holds as long as (seed, counter)
// pairs are not reused, which the callers' monotonic counters ensure.

// TraceID identifies one causal trace (one job, end to end).
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// String renders the id as lowercase hex, the traceparent wire form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the all-zero id, which traceparent forbids.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as lowercase hex, the traceparent wire form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports the all-zero id, which traceparent forbids.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// derive hashes (tag, seed, n) and copies the prefix into out,
// nudging the last byte if the prefix came out all zero (the one value
// the wire format reserves).
func derive(out []byte, tag, seed string, n uint64) {
	h := sha256.New()
	h.Write([]byte(tag))
	h.Write([]byte{0})
	h.Write([]byte(seed))
	var ctr [8]byte
	binary.LittleEndian.PutUint64(ctr[:], n)
	h.Write(ctr[:])
	sum := h.Sum(nil)
	copy(out, sum)
	zero := true
	for _, b := range out {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		out[len(out)-1] = 1
	}
}

// DeriveTraceID returns the trace id for (seed, n). Callers pair a
// stable seed (job fingerprint, boot nonce) with a monotonic counter.
func DeriveTraceID(seed string, n uint64) TraceID {
	var t TraceID
	derive(t[:], "chaos.trace", seed, n)
	return t
}

// DeriveSpanID returns span n of the given trace (trace is the
// lowercase-hex trace id). Distinct counters yield distinct ids.
func DeriveSpanID(trace string, n uint64) SpanID {
	var s SpanID
	derive(s[:], "chaos.span", trace, n)
	return s
}

// Traceparent renders the W3C traceparent header value for a sampled
// trace: 00-<trace>-<span>-01.
func Traceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header, returning the
// trace id and the caller's span id (the parent of the span the
// receiver opens). It is strict where the spec is: lowercase hex only,
// exact field widths, no all-zero ids, version ff invalid, and version
// 00 admits exactly four fields (higher versions may append more).
// Malformed headers return ok=false — the caller starts a fresh trace
// instead of failing the request.
func ParseTraceparent(h string) (t TraceID, parent SpanID, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return t, parent, false
	}
	version := parts[0]
	if len(version) != 2 || !isLowerHex(version) || version == "ff" {
		return t, parent, false
	}
	if version == "00" && len(parts) != 4 {
		return t, parent, false
	}
	if len(parts[1]) != 32 || !isLowerHex(parts[1]) ||
		len(parts[2]) != 16 || !isLowerHex(parts[2]) ||
		len(parts[3]) != 2 || !isLowerHex(parts[3]) {
		return t, parent, false
	}
	if _, err := hex.Decode(t[:], []byte(parts[1])); err != nil {
		return t, parent, false
	}
	if _, err := hex.Decode(parent[:], []byte(parts[2])); err != nil {
		return t, parent, false
	}
	if t.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return t, parent, true
}

func isLowerHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}
