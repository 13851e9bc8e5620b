package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"chaos/internal/core/drive"
)

// TreeSpan is one node of a causal trace tree: a named time range with
// a trace-wide identity and a parent link. The service journals its
// lifecycle spans in this form (the JSON tags are the wire and journal
// encoding), and the merged-timeline builder converts engine
// flight-recorder spans into it at serve time.
type TreeSpan struct {
	TraceID string `json:"traceId,omitempty"`
	SpanID  string `json:"spanId"`
	// Parent is the span id this span nests under; "" marks a root.
	Parent string `json:"parent,omitempty"`
	// Remote marks a span whose parent lives in another process (the
	// caller named it via an inbound traceparent); tree building treats
	// such spans as roots rather than orphans.
	Remote bool   `json:"remote,omitempty"`
	Name   string `json:"name"`
	// Kind is the tier the span came from: "request" (HTTP), "lifecycle"
	// (scheduler), "wal" (durability), "engine" (flight recorder).
	Kind string `json:"kind"`
	// Start/End are wall-clock epoch nanoseconds, except spans with
	// Clock "virtual" (DES-engine spans), whose times are virtual
	// nanoseconds since run start. End 0 means the span is still open.
	Start int64 `json:"startNs"`
	End   int64 `json:"endNs,omitempty"`
	// Clock is "" for wall-clock spans, "virtual" for DES-engine spans.
	Clock  string `json:"clock,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Span kinds.
const (
	KindRequest   = "request"
	KindLifecycle = "lifecycle"
	KindWAL       = "wal"
	KindEngine    = "engine"
)

// Node is one assembled tree position: a span and its children,
// ordered by start time.
type Node struct {
	Span     TreeSpan `json:"span"`
	Children []*Node  `json:"children,omitempty"`
}

// BuildTree assembles spans into rooted trees. A span is a root when
// it has no parent or its parent is remote; a span whose parent was
// dropped (ring overflow, a journal gap) is an ORPHAN: it is counted
// and re-attached under the earliest root — never silently lost — so a
// Chrome export of a clipped trace still shows every retained span.
// When no root survived at all, orphans are promoted to roots.
// Children are sorted by (Start, SpanID), so the tree shape is a pure
// function of the span set.
func BuildTree(spans []TreeSpan) (roots []*Node, orphans int) {
	nodes := make([]*Node, len(spans))
	byID := make(map[string]*Node, len(spans))
	for i, s := range spans {
		n := &Node{Span: s}
		nodes[i] = n
		if _, dup := byID[s.SpanID]; !dup {
			byID[s.SpanID] = n
		}
	}
	var orphaned []*Node
	for _, n := range nodes {
		switch {
		case n.Span.Parent == "" || n.Span.Remote:
			roots = append(roots, n)
		default:
			p := byID[n.Span.Parent]
			if p == nil || p == n {
				orphans++
				orphaned = append(orphaned, n)
				continue
			}
			p.Children = append(p.Children, n)
		}
	}
	if len(roots) == 0 && len(orphaned) > 0 {
		// Every ancestor was dropped: promote the orphans so the trees
		// still carry the retained spans.
		roots, orphaned = orphaned, nil
	}
	sortNodes(roots)
	if len(orphaned) > 0 {
		primary := roots[0]
		primary.Children = append(primary.Children, orphaned...)
	}
	// A cycle among spans (corrupt input) is unreachable from any root;
	// break it by promoting its earliest member, counting it orphaned.
	reached := map[*Node]bool{}
	var mark func(n *Node)
	mark = func(n *Node) {
		if reached[n] {
			return
		}
		reached[n] = true
		for _, c := range n.Children {
			mark(c)
		}
	}
	for _, r := range roots {
		mark(r)
	}
	for _, n := range nodes {
		if reached[n] {
			continue
		}
		if p := byID[n.Span.Parent]; p != nil {
			p.Children = removeChild(p.Children, n)
		}
		orphans++
		roots = append(roots, n)
		mark(n)
	}
	for _, r := range roots {
		sortChildren(r)
	}
	sortNodes(roots)
	return roots, orphans
}

func removeChild(children []*Node, n *Node) []*Node {
	for i, c := range children {
		if c == n {
			return append(children[:i], children[i+1:]...)
		}
	}
	return children
}

func sortNodes(ns []*Node) {
	sort.SliceStable(ns, func(i, k int) bool {
		a, b := ns[i].Span, ns[k].Span
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.SpanID < b.SpanID
	})
}

func sortChildren(n *Node) {
	sortNodes(n.Children)
	for _, c := range n.Children {
		sortChildren(c)
	}
}

// Timeline is the merged cross-tier view of one job: the journaled
// service spans (request, lifecycle, WAL — wall-clock epoch ns) plus
// the execution-scoped engine flight recording, stitched under the
// job's run span at build time.
type Timeline struct {
	TraceID string
	// Spans are the service-tier spans (request/lifecycle/wal).
	Spans []TreeSpan
	// Engine is the flight recording of the run, when this process
	// executed it (times are nanoseconds relative to run start).
	Engine []drive.Span
	// EngineVirtual marks DES-engine recordings, whose span times are
	// VIRTUAL nanoseconds: they order and nest correctly but cannot be
	// aligned with the wall-clock tiers, so they keep their own clock.
	EngineVirtual bool
	// RunSpanID is the lifecycle span the engine spans parent under;
	// "" leaves them orphans (BuildTree re-attaches them to the root).
	RunSpanID string
	// RunStartNs is the epoch time of the run span's start, the offset
	// that aligns native (wall-clock) engine spans with the other tiers.
	RunStartNs int64
}

// engineTreeSpans converts the flight recording into TreeSpans with
// deterministically derived span ids, parented under the run span.
func (tl Timeline) engineTreeSpans() []TreeSpan {
	out := make([]TreeSpan, 0, len(tl.Engine))
	for i, s := range tl.Engine {
		start, end := s.Start, s.Start+s.Dur
		clock := ""
		if tl.EngineVirtual {
			clock = "virtual"
		} else {
			start += tl.RunStartNs
			end += tl.RunStartNs
		}
		out = append(out, TreeSpan{
			TraceID: tl.TraceID,
			SpanID:  tl.engineSpanID(i),
			Parent:  tl.RunSpanID,
			Name:    engineSpanName(s),
			Kind:    KindEngine,
			Start:   start,
			End:     end,
			Clock:   clock,
			Detail:  fmt.Sprintf("machine %d iter %d", s.Machine, s.Iter),
		})
	}
	return out
}

// engineSpanID is the derived span id of the i-th engine span.
func (tl Timeline) engineSpanID(i int) string {
	return DeriveSpanID(tl.TraceID+"/engine", uint64(i)).String()
}

func engineSpanName(s drive.Span) string {
	name := s.Phase
	if s.Part >= 0 {
		name = fmt.Sprintf("%s p%d", s.Phase, s.Part)
	}
	if s.Stolen {
		name += " (stolen)"
	}
	return name
}

// Tree assembles the merged timeline into rooted trees (see BuildTree
// for orphan handling).
func (tl Timeline) Tree() ([]*Node, int) {
	spans := make([]TreeSpan, 0, len(tl.Spans)+len(tl.Engine))
	spans = append(spans, tl.Spans...)
	spans = append(spans, tl.engineTreeSpans()...)
	return BuildTree(spans)
}

// chromeEvent is one trace_event record in the Chrome/Perfetto JSON
// format (ph "X" = complete event with ts+dur, "M" = metadata). ts and
// dur are microseconds by spec.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Cat  string  `json:"cat,omitempty"`
	// ID and BP serve flow events ("s"/"f"): ID pairs the start with its
	// finish, BP "e" binds the finish to the enclosing slice.
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Chrome thread ids per tier; engine spans get engineTidBase+machine.
const (
	tidRequest    = 0
	tidLifecycle  = 1
	tidWAL        = 2
	engineTidBase = 10
)

// tierThreads names the service tiers' threads, in tid order.
var tierThreads = [...]string{tidRequest: "http", tidLifecycle: "scheduler", tidWAL: "wal"}

// addEngineArgs records an engine span's iteration, partition and
// byte/chunk/steal tallies in its Chrome event's args.
func addEngineArgs(args map[string]any, s drive.Span) {
	args["iter"] = s.Iter
	if s.Part >= 0 {
		args["part"] = s.Part
	}
	if s.Chunks != 0 {
		args["chunks"] = s.Chunks
	}
	if s.BytesIn != 0 {
		args["bytesIn"] = s.BytesIn
	}
	if s.BytesOut != 0 {
		args["bytesOut"] = s.BytesOut
	}
	if s.Stolen {
		args["stolen"] = true
	}
	if s.Phase == drive.PhaseSteal {
		args["stealsAccepted"] = s.StealsAccepted
		args["stealsRejected"] = s.StealsRejected
	}
}

// WriteChrome emits the merged timeline as Chrome trace_event JSON
// ({"traceEvents": [...]}, loadable in about:tracing or Perfetto): the
// full tree as complete ("X") events on per-tier threads, engine spans
// on per-machine threads with their iteration, partition and
// byte/chunk/steal tallies as args, and flow ("s"/"f") events wherever a
// child runs on a different thread than its parent — the queue
// boundary between the HTTP request and the worker, and the handoff
// from the run span into the engine. Only the tiers and machines
// present get thread names. Virtual-clock engine spans land in their
// own process (pid 1, "virtual ns") since they cannot be aligned with
// wall-clock time. The output is a pure function of the timeline.
func (tl Timeline) WriteChrome(w io.Writer) error {
	roots, _ := tl.Tree()
	// Each engine node's source span, by the id the converter derived.
	source := make(map[string]drive.Span, len(tl.Engine))
	for i, s := range tl.Engine {
		source[tl.engineSpanID(i)] = s
	}

	// Normalize wall-clock timestamps to the earliest span so the view
	// opens at ~0 µs instead of the unix epoch offset.
	var base int64 = -1
	var walk func(n *Node, f func(*Node))
	walk = func(n *Node, f func(*Node)) {
		f(n)
		for _, c := range n.Children {
			walk(c, f)
		}
	}
	for _, r := range roots {
		walk(r, func(n *Node) {
			if n.Span.Clock == "" && (base < 0 || n.Span.Start < base) {
				base = n.Span.Start
			}
		})
	}
	if base < 0 {
		base = 0
	}

	tidOf := func(sp TreeSpan) int {
		switch sp.Kind {
		case KindRequest:
			return tidRequest
		case KindWAL:
			return tidWAL
		case KindEngine:
			return engineTidBase + source[sp.SpanID].Machine
		default:
			return tidLifecycle
		}
	}
	var events []chromeEvent
	for tid, name := range tierThreads {
		if slices.ContainsFunc(tl.Spans, func(sp TreeSpan) bool { return tidOf(sp) == tid }) {
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: tid, Args: map[string]any{"name": name}})
		}
	}
	seen := map[int]bool{}
	var machines []int
	for _, s := range tl.Engine {
		if !seen[s.Machine] {
			seen[s.Machine] = true
			machines = append(machines, s.Machine)
		}
	}
	sort.Ints(machines)
	pidOf := func(sp TreeSpan) int {
		if sp.Clock == "virtual" {
			return 1
		}
		return 0
	}
	enginePid := 0
	if tl.EngineVirtual {
		enginePid = 1
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": "engine (virtual ns)"}})
	}
	for _, m := range machines {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: enginePid,
			Tid: engineTidBase + m, Args: map[string]any{"name": fmt.Sprintf("machine %d", m)}})
	}

	tsOf := func(sp TreeSpan, at int64) float64 {
		if sp.Clock == "virtual" {
			return float64(at) / 1e3
		}
		return float64(at-base) / 1e3
	}

	flowID := 0
	var emit func(n *Node)
	emit = func(n *Node) {
		sp := n.Span
		end := sp.End
		if end < sp.Start {
			end = sp.Start // still open: render as a point
		}
		args := map[string]any{"spanId": sp.SpanID, "kind": sp.Kind}
		if sp.Detail != "" {
			args["detail"] = sp.Detail
		}
		if sp.End == 0 {
			args["open"] = true
		}
		if s, ok := source[sp.SpanID]; ok && sp.Kind == KindEngine {
			addEngineArgs(args, s)
		}
		events = append(events, chromeEvent{
			Name: sp.Name, Ph: "X",
			Ts: tsOf(sp, sp.Start), Dur: float64(end-sp.Start) / 1e3,
			Pid: pidOf(sp), Tid: tidOf(sp), Cat: sp.Kind, Args: args,
		})
		for _, c := range n.Children {
			// A child on another thread (or clock) is a causal handoff:
			// draw the flow arrow across the boundary.
			if tidOf(c.Span) != tidOf(sp) || pidOf(c.Span) != pidOf(sp) {
				flowID++
				events = append(events,
					chromeEvent{Name: "handoff", Ph: "s", ID: flowID, Cat: "flow",
						Ts: tsOf(sp, sp.Start), Pid: pidOf(sp), Tid: tidOf(sp)},
					chromeEvent{Name: "handoff", Ph: "f", BP: "e", ID: flowID, Cat: "flow",
						Ts: tsOf(c.Span, c.Span.Start), Pid: pidOf(c.Span), Tid: tidOf(c.Span)})
			}
			emit(c)
		}
	}
	for _, r := range roots {
		emit(r)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
