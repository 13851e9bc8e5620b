package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"chaos/internal/core/drive"
)

func countNodes(roots []*Node) int {
	n := 0
	var walk func(*Node)
	walk = func(nd *Node) {
		n++
		for _, c := range nd.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return n
}

// BuildTree's base case: parent links become nesting, children sort by
// (Start, SpanID), and a remote parent makes a root rather than an
// orphan.
func TestBuildTreeNesting(t *testing.T) {
	spans := []TreeSpan{
		{SpanID: "root", Remote: true, Parent: "caller", Name: "request", Start: 10},
		{SpanID: "b", Parent: "root", Name: "run", Start: 30},
		{SpanID: "a", Parent: "root", Name: "queued", Start: 20},
		{SpanID: "a2", Parent: "root", Name: "admitted", Start: 20}, // ties break on SpanID
	}
	roots, orphans := BuildTree(spans)
	if orphans != 0 {
		t.Fatalf("orphans = %d, want 0", orphans)
	}
	if len(roots) != 1 || roots[0].Span.SpanID != "root" {
		t.Fatalf("roots = %+v, want the single remote-parent span", roots)
	}
	got := make([]string, 0, 3)
	for _, c := range roots[0].Children {
		got = append(got, c.Span.SpanID)
	}
	want := []string{"a", "a2", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("children order = %v, want %v", got, want)
		}
	}
	if countNodes(roots) != len(spans) {
		t.Fatalf("tree holds %d spans, want %d", countNodes(roots), len(spans))
	}
}

// A span whose parent is missing (ring overflow, journal gap) is
// counted as an orphan and re-attached under the earliest root — never
// dropped from the tree.
func TestBuildTreeOrphanReattached(t *testing.T) {
	spans := []TreeSpan{
		{SpanID: "root", Name: "request", Start: 5},
		{SpanID: "lost-child", Parent: "evicted", Name: "scatter p0", Start: 50},
	}
	roots, orphans := BuildTree(spans)
	if orphans != 1 {
		t.Fatalf("orphans = %d, want 1", orphans)
	}
	if len(roots) != 1 || len(roots[0].Children) != 1 || roots[0].Children[0].Span.SpanID != "lost-child" {
		t.Fatalf("orphan was not re-attached under the root: %+v", roots)
	}
}

// When every ancestor was dropped, the orphans are promoted to roots so
// the retained spans still render.
func TestBuildTreeAllOrphansPromoted(t *testing.T) {
	spans := []TreeSpan{
		{SpanID: "x", Parent: "gone1", Name: "scatter p0", Start: 2},
		{SpanID: "y", Parent: "gone2", Name: "gather p0", Start: 1},
	}
	roots, orphans := BuildTree(spans)
	if orphans != 2 {
		t.Fatalf("orphans = %d, want 2", orphans)
	}
	if len(roots) != 2 || roots[0].Span.SpanID != "y" || roots[1].Span.SpanID != "x" {
		t.Fatalf("promoted roots = %+v, want y then x (start order)", roots)
	}
}

// A parent cycle (corrupt input) must not hang or vanish: the cycle is
// broken, its members surface as roots, and they count as orphans.
func TestBuildTreeCycleBroken(t *testing.T) {
	spans := []TreeSpan{
		{SpanID: "root", Name: "request", Start: 0},
		{SpanID: "c1", Parent: "c2", Name: "a", Start: 10},
		{SpanID: "c2", Parent: "c1", Name: "b", Start: 20},
	}
	roots, orphans := BuildTree(spans)
	if orphans == 0 {
		t.Fatal("cycle members were not counted as orphans")
	}
	if countNodes(roots) != len(spans) {
		t.Fatalf("tree holds %d spans, want %d (cycle must not drop spans)", countNodes(roots), len(spans))
	}
	// A self-parented span is the degenerate cycle.
	roots, orphans = BuildTree([]TreeSpan{{SpanID: "s", Parent: "s", Name: "self", Start: 0}})
	if countNodes(roots) != 1 || orphans != 1 {
		t.Fatalf("self-parent: roots=%d orphans=%d, want 1/1", countNodes(roots), orphans)
	}
}

// Ring wraparound with parented spans: when the ring evicts a parent
// but keeps its children, the tree re-attaches the survivors and the
// Chrome export still renders every retained span — a clipped
// recording degrades, it does not orphan the export.
func TestRingWraparoundKeepsChromeExportWhole(t *testing.T) {
	const capacity = 4
	ring := NewRing[TreeSpan](capacity)
	// A chain root -> s1 -> ... -> s6; the ring keeps only the last 4,
	// so the retained spans' ancestors are all evicted.
	prev := ""
	for i := 0; i < 7; i++ {
		id := fmt.Sprintf("s%d", i)
		name := "request"
		if i > 0 {
			name = fmt.Sprintf("phase %d", i)
		}
		ring.Record(TreeSpan{SpanID: id, Parent: prev, Name: name, Kind: KindLifecycle, Start: int64(i * 100), End: int64(i*100 + 50)})
		prev = id
	}
	spans, dropped := ring.Snapshot()
	if dropped != 3 || len(spans) != capacity {
		t.Fatalf("ring kept %d spans, dropped %d; want %d kept, 3 dropped", len(spans), dropped, capacity)
	}
	roots, orphans := BuildTree(spans)
	if orphans != 0 {
		// s3's parent s2 was evicted, but s3 is the only parentless
		// survivor chain head: it must have been promoted, not counted
		// against a surviving root.
		t.Logf("orphans = %d (survivor chain head re-attached)", orphans)
	}
	if countNodes(roots) != capacity {
		t.Fatalf("tree holds %d spans, want all %d retained", countNodes(roots), capacity)
	}

	tl := Timeline{TraceID: DeriveTraceID("wrap", 0).String(), Spans: spans}
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if complete != capacity {
		t.Fatalf("chrome export holds %d complete events, want %d (dropped parents must not orphan the export)", complete, capacity)
	}
}

// The merged timeline parents engine spans under the run span, keeps
// the virtual clock separate from wall-clock tiers, and draws flow
// events across the run->engine boundary.
func TestTimelineMergesEngineSpans(t *testing.T) {
	trace := DeriveTraceID("timeline", 0).String()
	runID := DeriveSpanID(trace, 2).String()
	tl := Timeline{
		TraceID: trace,
		Spans: []TreeSpan{
			{TraceID: trace, SpanID: DeriveSpanID(trace, 0).String(), Name: "request", Kind: KindRequest, Start: 1_000_000, End: 1_100_000},
			{TraceID: trace, SpanID: runID, Parent: DeriveSpanID(trace, 0).String(), Name: "run", Kind: KindLifecycle, Start: 1_100_000, End: 9_000_000},
		},
		Engine: []drive.Span{
			{Machine: 0, Iter: 0, Part: 0, Phase: drive.PhaseScatter, Start: 0, Dur: 500},
			{Machine: 1, Iter: 0, Part: 1, Phase: drive.PhaseGather, Start: 500, Dur: 300},
		},
		EngineVirtual: true,
		RunSpanID:     runID,
	}
	roots, orphans := BuildTree(append(append([]TreeSpan{}, tl.Spans...), tl.engineTreeSpans()...))
	if orphans != 0 {
		t.Fatalf("orphans = %d, want 0", orphans)
	}
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	run := roots[0].Children[0]
	if run.Span.SpanID != runID || len(run.Children) != 2 {
		t.Fatalf("engine spans did not nest under the run span: %+v", run)
	}
	for _, c := range run.Children {
		if c.Span.Kind != KindEngine || c.Span.Clock != "virtual" {
			t.Fatalf("engine child = %+v, want kind engine with virtual clock", c.Span)
		}
	}

	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var flowStarts, flowEnds, virtualEvents int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "s":
			flowStarts++
		case "f":
			flowEnds++
		case "X":
			if e.Pid == 1 {
				virtualEvents++
			}
		}
	}
	if flowStarts == 0 || flowStarts != flowEnds {
		t.Fatalf("flow events s=%d f=%d, want matched pairs across the run->engine handoff", flowStarts, flowEnds)
	}
	if virtualEvents != 2 {
		t.Fatalf("virtual-clock engine events = %d, want 2 (own pid keeps clocks apart)", virtualEvents)
	}
}

// A flight recording alone (chaos-run -trace-out) renders through the
// Timeline writer as valid trace_event JSON: complete ("X") events in
// microseconds carrying each span's engine tallies, thread names for
// the machines present and for no service tier, and the same bytes on
// every render.
func TestWriteChromeTrace(t *testing.T) {
	spans := []drive.Span{
		{Iter: -1, Machine: 0, Part: -1, Phase: drive.PhasePreprocess, Start: 0, Dur: 2000, BytesIn: 64},
		{Iter: 0, Machine: 0, Part: 0, Phase: drive.PhaseScatter, Start: 2000, Dur: 1500, Chunks: 3, BytesIn: 96},
		{Iter: 0, Machine: 1, Part: 1, Phase: drive.PhaseGather, Start: 3500, Dur: 1000, BytesOut: 32},
		{Iter: 0, Machine: 1, Part: 0, Phase: drive.PhaseScatter, Stolen: true, Start: 4500, Dur: 500},
		{Iter: 0, Machine: 1, Part: -1, Phase: drive.PhaseSteal, Start: 5000, Dur: 100, StealsAccepted: 1, StealsRejected: 2},
	}
	tl := Timeline{Engine: spans}
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	// Go picks one of two map orders over two keys as rarely as one time
	// in eight, so one render is compared to many.
	for i := 0; i < 50; i++ {
		var again bytes.Buffer
		if err := tl.WriteChrome(&again); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("render %d differs from the first:\n%s\n%s", i+2, buf.String(), again.String())
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var threads []string
	byName := map[string]map[string]any{}
	complete := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			threads = append(threads, fmt.Sprintf("%d=%v", e.Tid, e.Args["name"]))
		case "X":
			complete++
			byName[e.Name] = e.Args
			if e.Name == "scatter p0" && e.Tid == engineTidBase && (e.Ts != 2.0 || e.Dur != 1.5) {
				t.Errorf("scatter span ts/dur = %v/%v µs, want 2/1.5", e.Ts, e.Dur)
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if want := []string{"10=machine 0", "11=machine 1"}; fmt.Sprint(threads) != fmt.Sprint(want) {
		t.Errorf("thread names %v, want %v (machines present, no service tier)", threads, want)
	}
	if complete != len(spans) {
		t.Fatalf("complete events = %d, want %d", complete, len(spans))
	}
	for name, want := range map[string]map[string]any{
		"scatter p0":          {"iter": 0.0, "part": 0.0, "chunks": 3.0, "bytesIn": 96.0},
		"gather p1":           {"iter": 0.0, "part": 1.0, "bytesOut": 32.0},
		"scatter p0 (stolen)": {"stolen": true},
		drive.PhaseSteal:      {"stealsAccepted": 1.0, "stealsRejected": 2.0},
		drive.PhasePreprocess: {"iter": -1.0, "bytesIn": 64.0},
	} {
		args := byName[name]
		for k, v := range want {
			if args[k] != v {
				t.Errorf("%s: args[%q] = %v, want %v (args %v)", name, k, args[k], v, args)
			}
		}
	}
}
