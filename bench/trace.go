package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"chaos"
)

// span is one record of the harness's own tracer: a call the harness
// made into a layer (generate, view, run, verify, a probe, an HTTP
// request), or an engine flight-recorder span re-parented under the run
// that produced it. Spans of one operation share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start/End are nanoseconds since the tracer started. Engine spans of
	// a sim run keep the simulation's virtual nanoseconds since run start
	// instead and say so in Clock.
	Start int64  `json:"startNs"`
	End   int64  `json:"endNs"`
	Clock string `json:"clock,omitempty"`
	// Engine is the flight-recorder span this record was made from.
	Engine *chaos.TraceSpan `json:"engine,omitempty"`
	// Detail is a server-side document attached to the span (the job's
	// GET /v1/jobs/{id}/trace tree).
	Detail json.RawMessage `json:"detail,omitempty"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, which is how the untraced runs run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// attach stores a server-side document on a span.
func (t *tracer) attach(id int, detail json.RawMessage) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Detail = detail
	t.mu.Unlock()
}

// addEngine hangs a run's flight-recorder spans under the harness's run
// span. A span lying inside another span of the same machine (a spill
// inside its scatter, a stolen partition inside the steal sweep) becomes
// that span's child. Native spans are host nanoseconds since run start
// and are shifted onto the tracer's clock; sim spans stay virtual.
func (t *tracer) addEngine(run int, spans []chaos.TraceSpan, virtual bool) {
	if t == nil {
		return
	}
	parents, _ := nest(spans)
	t.mu.Lock()
	defer t.mu.Unlock()
	base, op := len(t.spans), t.spans[run-1].Op
	var shift int64
	clock := "virtual"
	if !virtual {
		shift, clock = t.spans[run-1].Start, ""
	}
	for i := range spans {
		s := &spans[i]
		parent := run
		if parents[i] >= 0 {
			parent = base + parents[i] + 1
		}
		t.spans = append(t.spans, span{
			ID: base + i + 1, Parent: parent, Op: op, Name: "engine:" + s.Phase,
			Start: s.Start + shift, End: s.Start + s.Dur + shift, Clock: clock, Engine: s,
		})
	}
}

// write stores the spans as <dir>/<workload>.trace.json.
func (t *tracer) write(dir, workload string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// nest arranges one run's flight-recorder spans into per-machine trees:
// parents[i] is the index of the smallest span of the same machine whose
// interval contains span i's (-1 for none), and self[i] is span i's
// duration minus the part its children cover.
func nest(spans []chaos.TraceSpan) (parents []int, self []int64) {
	parents = make([]int, len(spans))
	self = make([]int64, len(spans))
	order := make([]int, len(spans))
	for i := range spans {
		order[i], parents[i], self[i] = i, -1, spans[i].Dur
	}
	// Containers sort before what they contain: by machine, start
	// ascending, then end descending.
	sort.SliceStable(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.Machine != y.Machine {
			return x.Machine < y.Machine
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.Dur > y.Dur
	})
	var stack []int
	for _, i := range order {
		s := &spans[i]
		for len(stack) > 0 {
			top := &spans[stack[len(stack)-1]]
			if top.Machine == s.Machine && s.Start+s.Dur <= top.Start+top.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			parents[i] = stack[len(stack)-1]
			self[parents[i]] -= s.Dur
		}
		stack = append(stack, i)
	}
	return parents, self
}

// phaseTimes sums one run's self times by phase and by machine, in
// seconds of the spans' own clock.
func phaseTimes(spans []chaos.TraceSpan) (byPhase map[string]float64, byMachine map[int]float64) {
	_, self := nest(spans)
	byPhase, byMachine = make(map[string]float64), make(map[int]float64)
	for i := range spans {
		sec := float64(self[i]) / 1e9
		byPhase[spans[i].Phase] += sec
		byMachine[spans[i].Machine] += sec
	}
	return byPhase, byMachine
}
