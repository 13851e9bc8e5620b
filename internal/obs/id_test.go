package obs

import (
	"regexp"
	"testing"
)

// Derived ids must be a pure function of (seed, counter): the same
// inputs always yield the same id (tests and the post-crash journal
// depend on it), different counters or seeds yield different ids, and
// the wire form is exactly the lowercase hex the spec demands.
func TestDerivationStability(t *testing.T) {
	traceHex := regexp.MustCompile(`^[0-9a-f]{32}$`)
	spanHex := regexp.MustCompile(`^[0-9a-f]{16}$`)

	a := DeriveTraceID("job-fingerprint|j1", 0)
	b := DeriveTraceID("job-fingerprint|j1", 0)
	if a != b {
		t.Fatalf("DeriveTraceID is not stable: %s vs %s", a, b)
	}
	if a.IsZero() {
		t.Fatal("derived trace id is all-zero (reserved by the wire format)")
	}
	if !traceHex.MatchString(a.String()) {
		t.Fatalf("trace id wire form %q is not 32 lowercase hex chars", a)
	}
	if DeriveTraceID("job-fingerprint|j1", 1) == a {
		t.Fatal("distinct counters yielded the same trace id")
	}
	if DeriveTraceID("job-fingerprint|j2", 0) == a {
		t.Fatal("distinct seeds yielded the same trace id")
	}

	s0 := DeriveSpanID(a.String(), 0)
	if s0 != DeriveSpanID(a.String(), 0) {
		t.Fatal("DeriveSpanID is not stable")
	}
	if s0.IsZero() {
		t.Fatal("derived span id is all-zero (reserved by the wire format)")
	}
	if !spanHex.MatchString(s0.String()) {
		t.Fatalf("span id wire form %q is not 16 lowercase hex chars", s0)
	}
	if DeriveSpanID(a.String(), 1) == s0 {
		t.Fatal("distinct counters yielded the same span id")
	}
	// Trace and span derivation are domain-separated: the same (seed,
	// counter) fed to both must not make the span id a prefix of the
	// trace id.
	same := DeriveSpanID("job-fingerprint|j1", 0)
	if string(a[:8]) == string(same[:]) {
		t.Fatal("span id equals trace id prefix: derivation domains collide")
	}
}

// A traceparent we mint must parse back to the ids we minted it from.
func TestTraceparentRoundTrip(t *testing.T) {
	tid := DeriveTraceID("round-trip", 7)
	sid := DeriveSpanID(tid.String(), 3)
	h := Traceparent(tid, sid)
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected our own header", h)
	}
	if gotT != tid || gotS != sid {
		t.Fatalf("round trip drifted: got (%s, %s), want (%s, %s)", gotT, gotS, tid, sid)
	}
	// Leading/trailing whitespace is tolerated (proxies pad headers).
	if _, _, ok := ParseTraceparent(" " + h + " "); !ok {
		t.Fatalf("ParseTraceparent rejected %q with surrounding spaces", h)
	}
}

const (
	goodTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	goodSpan  = "00f067aa0ba902b7"
)

// malformedTraceparents are headers the W3C spec rejects, by the rule
// each one breaks.
var malformedTraceparents = []struct {
	name string
	h    string
}{
	{"empty", ""},
	{"too few fields", "00-" + goodTrace},
	{"uppercase trace id", "00-" + "4BF92F3577B34DA6A3CE929D0E0E4736" + "-" + goodSpan + "-01"},
	{"uppercase span id", "00-" + goodTrace + "-" + "00F067AA0BA902B7" + "-01"},
	{"short trace id", "00-" + goodTrace[:30] + "-" + goodSpan + "-01"},
	{"long trace id", "00-" + goodTrace + "ab-" + goodSpan + "-01"},
	{"short span id", "00-" + goodTrace + "-" + goodSpan[:14] + "-01"},
	{"all-zero trace id", "00-00000000000000000000000000000000-" + goodSpan + "-01"},
	{"all-zero span id", "00-" + goodTrace + "-0000000000000000-01"},
	{"version ff", "ff-" + goodTrace + "-" + goodSpan + "-01"},
	{"version not hex", "0g-" + goodTrace + "-" + goodSpan + "-01"},
	{"version wrong width", "0-" + goodTrace + "-" + goodSpan + "-01"},
	{"version 00 with extra field", "00-" + goodTrace + "-" + goodSpan + "-01-extra"},
	{"non-hex trace id", "00-" + "zzf92f3577b34da6a3ce929d0e0e4736" + "-" + goodSpan + "-01"},
	{"flags wrong width", "00-" + goodTrace + "-" + goodSpan + "-1"},
	{"flags not hex", "00-" + goodTrace + "-" + goodSpan + "-0x"},
	{"empty fields", "---"},
}

// futureTraceparent is a higher version with an appended field: the
// four fields we understand still parse (the spec requires forward
// compatibility below ff).
const futureTraceparent = "42-" + goodTrace + "-" + goodSpan + "-01-whatever"

// ParseTraceparent is strict where the W3C spec is strict: every
// malformed shape is rejected so the server starts a fresh trace rather
// than adopting garbage identity.
func TestParseTraceparentMalformed(t *testing.T) {
	for _, tc := range malformedTraceparents {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, ok := ParseTraceparent(tc.h); ok {
				t.Fatalf("ParseTraceparent(%q) = ok, want rejection", tc.h)
			}
		})
	}
	if _, _, ok := ParseTraceparent(futureTraceparent); !ok {
		t.Fatal("future-version traceparent with extra fields was rejected")
	}
}

// FuzzParseTraceparent feeds the parser header values a client sent:
// it never panics, an accepted header carries two non-zero ids, and
// the ids it accepts round-trip through Traceparent.
func FuzzParseTraceparent(f *testing.F) {
	for _, tc := range malformedTraceparents {
		f.Add(tc.h)
	}
	good := "00-" + goodTrace + "-" + goodSpan + "-01"
	for _, h := range []string{good, " " + good + " ", futureTraceparent} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted a zero id: (%s, %s)", h, tid, sid)
		}
		gotT, gotS, ok := ParseTraceparent(Traceparent(tid, sid))
		if !ok || gotT != tid || gotS != sid {
			t.Fatalf("round trip of (%s, %s) = (%s, %s, %v)", tid, sid, gotT, gotS, ok)
		}
	})
}
